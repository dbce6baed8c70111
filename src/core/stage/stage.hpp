#pragma once

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "par/serialize.hpp"
#include "util/budget.hpp"
#include "util/stable_hash.hpp"
#include "util/timer.hpp"

namespace salign::core::stage {

/// Bumped whenever any stage artifact encoding (or the stage sequence
/// itself) changes shape; folded into every pipeline hash so stale on-disk
/// checkpoints from an older binary are ignored rather than misread.
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// Externalized-state knobs of one pipeline run (SampleAlignDConfig carries
/// one; `salign align --checkpoint-dir/--resume` sets it from the CLI).
struct CheckpointOptions {
  /// Directory for stage artifacts + manifest; empty disables checkpointing.
  /// Created (recursively) on first use.
  std::string dir;
  /// Load completed stages from `dir` instead of recomputing them. Stages
  /// whose identity (pipeline hash + stage chain) or payload digest does not
  /// match are recomputed — resuming is always safe, never wrong.
  bool resume = false;
  /// Test hook for kill/resume suites: abort the run (StageAbort) right
  /// after the N-th artifact (0-based) has been durably written, simulating
  /// a crash at that stage boundary. -1 = never.
  int fail_after = -1;
};

/// Thrown by the CheckpointOptions::fail_after test hook after the artifact
/// it names has been persisted — the checkpoint directory is left exactly as
/// a process kill at that boundary would.
class StageAbort : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Manifest row of one completed stage.
struct ArtifactRecord {
  int index = 0;                 ///< position in the stage sequence
  std::string name;              ///< stable stage name ("local-rank", ...)
  int paper_step = 0;            ///< first of the paper's steps 1-15 covered
                                 ///< (0 for extensions like polish)
  util::Digest128 chain;         ///< identity: H(prev chain, name, step)
  util::Digest128 payload;       ///< content digest of the serialized output
  std::uint64_t bytes = 0;       ///< serialized artifact size
  std::string file;              ///< artifact filename relative to dir
  bool resumed = false;          ///< loaded from checkpoint in this run
  double seconds = 0.0;          ///< wall time to compute (or load) it
};

/// A named, serialized stage output: manifest row + payload bytes.
struct StageArtifact {
  ArtifactRecord record;
  par::Bytes payload;
};

/// Identity and externalized-state I/O of one pipeline run.
///
/// The pipeline hash is H(code-version salt, full config, input sequence
/// set); every stage's chain hash extends it, so artifacts can only ever be
/// resumed into a run with the same inputs, same configuration and same
/// stage sequence — where determinism guarantees the recomputed value would
/// be bit-identical to the stored one.
class StageContext {
 public:
  StageContext(CheckpointOptions options, util::Digest128 pipeline_hash);

  [[nodiscard]] const CheckpointOptions& options() const { return options_; }
  [[nodiscard]] const util::Digest128& pipeline_hash() const {
    return pipeline_hash_;
  }
  [[nodiscard]] bool checkpointing() const { return !options_.dir.empty(); }

  /// Serialized payload for (chain) if resuming and a digest-verified
  /// artifact exists; nullopt otherwise (compute it). Corrupt payloads are
  /// quarantined (renamed to `<file>.corrupt`, noted) rather than silently
  /// ignored; transient read failures are retried with backoff first.
  [[nodiscard]] std::optional<par::Bytes> load(const util::Digest128& chain);

  /// Durably writes `artifact` (payload file fsynced before rename, then
  /// manifest rewrite the same way), riding out transient IO failures with
  /// bounded retry, and honors the fail_after hook. No-op when not
  /// checkpointing.
  void store(const StageArtifact& artifact);

  /// Re-registers a resumed stage in the manifest being rebuilt (its
  /// payload file is already on disk and verified).
  void keep(const ArtifactRecord& record);

  /// Human-readable notes on quarantined/ignored checkpoint state this run
  /// (surfaced through PipelineStats and --stats).
  [[nodiscard]] const std::vector<std::string>& quarantine_notes() const {
    return quarantine_notes_;
  }

 private:
  void flush_manifest() const;
  void quarantine_file(const std::string& file, const std::string& reason);

  CheckpointOptions options_;
  util::Digest128 pipeline_hash_;
  /// chain hex -> manifest row of the pre-existing checkpoint (resume).
  std::vector<ArtifactRecord> previous_;
  /// Rows of the manifest as this run rebuilds it, in stage order.
  std::vector<ArtifactRecord> current_;
  int stored_count_ = 0;
  std::vector<std::string> quarantine_notes_;
};

/// Sequential driver of the typed stage graph: each run() call is one named
/// stage; the value either comes from compute() (then is serialized, hashed
/// and optionally checkpointed) or — on resume — is deserialized from the
/// stage's stored artifact, skipping compute entirely. Deserialization goes
/// through exactly the codec compute()'s output was written with, so a
/// resumed value is bit-identical by construction.
class StageRunner {
 public:
  explicit StageRunner(StageContext& ctx) : ctx_(&ctx), chain_(ctx.pipeline_hash()) {}

  /// `compute` -> T; `write(ByteWriter&, const T&)`; `read(ByteReader&) -> T`.
  template <typename Compute, typename Write, typename Read>
  auto run(std::string_view name, int paper_step, Compute&& compute,
           Write&& write, Read&& read) -> decltype(compute()) {
    advance_chain(name, paper_step);
    ArtifactRecord rec;
    rec.index = next_index_++;
    rec.name = std::string(name);
    rec.paper_step = paper_step;
    rec.chain = chain_;
    util::Stopwatch watch;
    if (std::optional<par::Bytes> payload = ctx_->load(chain_)) {
      par::ByteReader r{std::span<const std::uint8_t>(*payload)};
      auto value = read(r);
      rec.payload = util::stable_hash128(*payload);
      rec.bytes = payload->size();
      rec.resumed = true;
      rec.seconds = watch.seconds();
      rec.file = artifact_filename(rec);
      ctx_->keep(rec);
      records_.push_back(rec);
      return value;
    }
    // Deadline/cancel lands here, between stages: loads above stay allowed
    // (they are cheap and only improve the checkpoint), computes do not.
    // The manifest written so far is valid, so --resume picks up exactly
    // where this throw stopped the run.
    util::poll_budget(name);
    auto value = compute();
    par::ByteWriter w;
    write(w, value);
    StageArtifact artifact;
    artifact.payload = w.take();
    rec.payload = util::stable_hash128(artifact.payload);
    rec.bytes = artifact.payload.size();
    rec.seconds = watch.seconds();
    rec.file = artifact_filename(rec);
    artifact.record = rec;
    records_.push_back(rec);
    ctx_->store(artifact);  // may throw StageAbort (fail_after hook)
    return value;
  }

  /// Stages completed so far (in order), with resume/compute provenance.
  [[nodiscard]] const std::vector<ArtifactRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t resumed_stages() const {
    std::uint64_t n = 0;
    for (const auto& r : records_) n += r.resumed ? 1 : 0;
    return n;
  }

  static std::string artifact_filename(const ArtifactRecord& rec);

 private:
  void advance_chain(std::string_view name, int paper_step);

  StageContext* ctx_;
  util::Digest128 chain_;
  int next_index_ = 0;
  std::vector<ArtifactRecord> records_;
};

// ---- Checkpoint-directory inspection (salign stages) ----------------------

/// Parsed manifest of a checkpoint directory.
struct Manifest {
  std::uint32_t format_version = 0;
  util::Digest128 pipeline_hash;
  std::vector<ArtifactRecord> records;
};

/// Reads `dir`/manifest.tsv; throws std::runtime_error when missing or
/// malformed.
[[nodiscard]] Manifest read_manifest(const std::string& dir);

/// Reads one artifact's payload and verifies it against the manifest digest.
/// Throws on missing file; returns false (payload cleared) on digest
/// mismatch.
bool read_artifact(const std::string& dir, const ArtifactRecord& rec,
                   par::Bytes& payload);

/// Outcome of repair_checkpoint(): what survived, what was set aside.
struct RepairReport {
  bool manifest_ok = false;           ///< manifest parsed (else quarantined)
  std::vector<ArtifactRecord> kept;   ///< rows whose payload verified
  std::vector<std::string> quarantined;  ///< "<file>: <reason>" set aside
  std::vector<std::string> dropped;   ///< rows removed (artifact missing)
};

/// `salign stages --repair`: verifies every artifact in `dir` against the
/// manifest, renames corrupt files to `<file>.corrupt`, drops rows whose
/// payload is missing or bad, and rewrites a manifest containing only the
/// rows that verify — leaving a directory `--verify` is clean on and
/// `--resume` can safely consume (dropped stages simply recompute).
RepairReport repair_checkpoint(const std::string& dir);

}  // namespace salign::core::stage
