#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bio/sequence.hpp"
#include "msa/alignment.hpp"

namespace salign::par {

/// Encoded payload: a flat byte vector. Checkpoint artifacts and cache
/// entries are stored in this form. The pipeline's modeled messages are
/// never encoded; their byte counts come from the codecs' wire_size.
using Bytes = std::vector<std::uint8_t>;

/// Little-endian append-only writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  // Zero-fill then memcpy instead of insert(end, b, b+n) or resize(): once
  // a caller inlines every write, GCC 12 at -O2/-O3 flags the iterator-range
  // insert with -Wnonnull and resize()'s fill with -Warray-bounds, both
  // false positives and fatal under -Werror.
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t old = buf_.size();
    buf_.insert(buf_.end(), n, std::uint8_t{0});
    std::memcpy(buf_.data() + old, p, n);
  }
  Bytes buf_;
};

/// Bounds-checked reader over an encoded payload.
class ByteReader {
 public:
  /// Non-owning view; the caller keeps `data` alive for the reader's
  /// lifetime.
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Owning overload: adopts the payload so that readers constructed
  /// straight from a temporary — `ByteReader r(load_payload())` — are safe.
  /// Without this, the span constructor would bind to the destroyed
  /// temporary (C++20 span's range constructor does not reject rvalues).
  explicit ByteReader(Bytes&& payload)
      : owned_(std::move(payload)), data_(owned_) {}

  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    std::uint32_t v;
    copy(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    copy(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    copy(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> b(data_.begin() + static_cast<long>(pos_),
                                data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return b;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  /// Bytes left unread. Codec readers size their pre-allocations against
  /// this so a bit-flipped count throws instead of allocating.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// Reads an element count whose elements occupy at least
  /// `min_bytes_each` payload bytes apiece, validating it against the bytes
  /// actually remaining. This is the codec-hardening primitive: a corrupt
  /// count (truncation, bit flip) becomes a clean "payload underrun" throw
  /// rather than a multi-gigabyte vector resize the OOM killer answers.
  std::uint64_t count64(std::uint64_t min_bytes_each) {
    const std::uint64_t n = u64();
    check_count(n, min_bytes_each);
    return n;
  }
  std::uint32_t count(std::uint32_t min_bytes_each) {
    const std::uint32_t n = u32();
    check_count(n, min_bytes_each);
    return n;
  }

 private:
  void check_count(std::uint64_t n, std::uint64_t min_bytes_each) const {
    const std::uint64_t floor = min_bytes_each == 0 ? 1 : min_bytes_each;
    if (n > remaining() / floor)
      throw std::runtime_error("ByteReader: payload underrun");
  }
  void need(std::size_t n) const {
    if (pos_ + n > data_.size())
      throw std::runtime_error("ByteReader: payload underrun");
  }
  void copy(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }
  Bytes owned_;  // declared before data_: the span may view into it
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---- Domain-type codecs -------------------------------------------------
//
// Each wire_size overload returns the bytes the matching writer appends,
// without encoding: the pipeline charges its modeled messages this way.

void write_sequence(ByteWriter& w, const bio::Sequence& s);
[[nodiscard]] bio::Sequence read_sequence(ByteReader& r);
[[nodiscard]] std::size_t wire_size(const bio::Sequence& s);

void write_sequences(ByteWriter& w, std::span<const bio::Sequence> seqs);
[[nodiscard]] std::vector<bio::Sequence> read_sequences(ByteReader& r);
[[nodiscard]] std::size_t wire_size(std::span<const bio::Sequence> seqs);

void write_alignment(ByteWriter& w, const msa::Alignment& a);
[[nodiscard]] msa::Alignment read_alignment(ByteReader& r);
[[nodiscard]] std::size_t wire_size(const msa::Alignment& a);

}  // namespace salign::par
