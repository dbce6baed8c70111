#include "par/serialize.hpp"

namespace salign::par {

void write_sequence(ByteWriter& w, const bio::Sequence& s) {
  w.u8(static_cast<std::uint8_t>(s.alphabet_kind()));
  w.str(s.id());
  w.bytes(s.codes());
}

bio::Sequence read_sequence(ByteReader& r) {
  const auto kind = static_cast<bio::AlphabetKind>(r.u8());
  std::string id = r.str();
  std::vector<std::uint8_t> codes = r.bytes();
  return bio::Sequence(std::move(id), std::move(codes), kind);
}

std::size_t wire_size(const bio::Sequence& s) {
  return 1 + 4 + s.id().size() + 4 + s.size();  // kind, id, codes
}

void write_sequences(ByteWriter& w, std::span<const bio::Sequence> seqs) {
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  for (const auto& s : seqs) write_sequence(w, s);
}

std::vector<bio::Sequence> read_sequences(ByteReader& r) {
  // count(): a corrupt length throws before the reserve below allocates.
  const std::uint32_t n = r.count(9);  // kind + two length prefixes
  std::vector<bio::Sequence> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(read_sequence(r));
  return out;
}

std::size_t wire_size(std::span<const bio::Sequence> seqs) {
  std::size_t n = 4;  // count
  for (const auto& s : seqs) n += wire_size(s);
  return n;
}

void write_alignment(ByteWriter& w, const msa::Alignment& a) {
  w.u8(static_cast<std::uint8_t>(a.alphabet_kind()));
  w.u32(static_cast<std::uint32_t>(a.num_rows()));
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    w.str(a.row(r).id);
    w.bytes(a.row(r).cells);
  }
}

msa::Alignment read_alignment(ByteReader& r) {
  const auto kind = static_cast<bio::AlphabetKind>(r.u8());
  const std::uint32_t rows = r.count(8);  // two length prefixes per row
  std::vector<msa::AlignedRow> out(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    out[i].id = r.str();
    out[i].cells = r.bytes();
  }
  return msa::Alignment(std::move(out), kind);
}

std::size_t wire_size(const msa::Alignment& a) {
  std::size_t n = 1 + 4;  // kind, row count
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    n += 4 + a.row(r).id.size() + 4 + a.row(r).cells.size();
  return n;
}

}  // namespace salign::par
