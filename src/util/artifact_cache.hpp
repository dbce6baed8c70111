#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/stable_hash.hpp"

namespace salign::util {

/// Byte-size-bounded, thread-safe LRU cache of serialized artifacts keyed by
/// content digest (util::Digest128 of the producing inputs + config + code
/// salt — see core/stage/stage.hpp for the key discipline).
///
/// Values are immutable serialized blobs: consumers deserialize on hit, so a
/// cached artifact can never leak shared mutable state between runs, and a
/// hit is exercised through exactly the same decode path a checkpoint resume
/// uses — bit-identity of cache-hit runs falls out of the codec round-trip
/// guarantees rather than needing separate reasoning.
///
/// A process-wide instance (process_cache()) lets repeated in-process runs
/// (`salign serve` and library embedders) reuse guide trees, distance
/// matrices, and finished profiles/alignments keyed by sequence-set hash.
/// It starts *disabled*; opting in is explicit
/// (SampleAlignDConfig::use_artifact_cache, MuscleOptions::use_artifact_cache;
/// `salign serve` opts in unless given --no-cache). A one-shot
/// `salign align` never hits: its buckets and ancestor set hash differently.
class ArtifactCache {
 public:
  using Blob = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Counters are cumulative since construction/last reset_stats().
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t hit_bytes = 0;      ///< total size of returned blobs
    std::uint64_t stored_bytes = 0;   ///< current resident payload bytes
    std::uint64_t entries = 0;        ///< current resident entry count
  };

  explicit ArtifactCache(std::uint64_t capacity_bytes = kDefaultCapacity);

  /// nullptr on miss. A hit refreshes the entry's LRU position.
  [[nodiscard]] Blob get(const Digest128& key);

  /// Inserts (or refreshes) `bytes` under `key`, evicting least-recently
  /// used entries until the capacity bound holds. Oversized blobs (larger
  /// than the whole capacity) are not cached. Returns the stored blob.
  Blob put(const Digest128& key, std::vector<std::uint8_t> bytes);
  Blob put(const Digest128& key, Blob blob);

  void clear();
  void reset_stats();

  /// Evicts immediately when lowered below the resident size.
  void set_capacity(std::uint64_t capacity_bytes);
  [[nodiscard]] std::uint64_t capacity() const;

  [[nodiscard]] Stats stats() const;

  /// The process-wide cache (256 MiB bound). Never consulted unless a
  /// component was explicitly configured to use it.
  static ArtifactCache& process_cache();

  static constexpr std::uint64_t kDefaultCapacity = 256ULL << 20;

 private:
  struct Entry {
    Digest128 key;
    Blob blob;
  };

  void evict_to_fit_locked();

  mutable std::mutex mu_;
  std::uint64_t capacity_bytes_;
  std::uint64_t stored_bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Digest128, std::list<Entry>::iterator, Digest128Hash>
      index_;
  Stats stats_;
};

/// One-line human-readable cache report ("hits 3/5 (12.4 KiB), resident 2
/// entries / 8.1 KiB of 256 MiB").
[[nodiscard]] std::string cache_summary(const ArtifactCache::Stats& s,
                                        std::uint64_t capacity_bytes);

}  // namespace salign::util
