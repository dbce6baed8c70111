#include "msa/alignment.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "util/string_util.hpp"

namespace salign::msa {

Alignment::Alignment(std::vector<AlignedRow> rows, bio::AlphabetKind kind)
    : rows_(std::move(rows)), kind_(kind) {
  validate();
}

Alignment Alignment::from_sequence(const bio::Sequence& seq) {
  AlignedRow row;
  row.id = seq.id();
  row.cells.assign(seq.codes().begin(), seq.codes().end());
  std::vector<AlignedRow> rows;
  rows.push_back(std::move(row));
  return Alignment(std::move(rows), seq.alphabet_kind());
}

Alignment Alignment::from_texts(
    std::span<const std::pair<std::string, std::string>> rows,
    bio::AlphabetKind kind) {
  const bio::Alphabet& alpha = bio::Alphabet::get(kind);
  std::vector<AlignedRow> out;
  out.reserve(rows.size());
  for (const auto& [id, text] : rows) {
    AlignedRow row;
    row.id = id;
    row.cells.reserve(text.size());
    for (char c : text)
      row.cells.push_back(c == '-' || c == '.' ? kGap : alpha.encode(c));
    out.push_back(std::move(row));
  }
  return Alignment(std::move(out), kind);
}

std::string Alignment::row_text(std::size_t r) const {
  const bio::Alphabet& alpha = alphabet();
  std::string s;
  s.reserve(num_cols());
  for (std::uint8_t c : rows_[r].cells)
    s.push_back(c == kGap ? '-' : alpha.decode(c));
  return s;
}

bio::Sequence Alignment::degapped(std::size_t r) const {
  std::vector<std::uint8_t> codes;
  codes.reserve(num_cols());
  for (std::uint8_t c : rows_[r].cells)
    if (c != kGap) codes.push_back(c);
  return bio::Sequence(rows_[r].id, std::move(codes), kind_);
}

std::size_t Alignment::residue_count(std::size_t r) const {
  return static_cast<std::size_t>(
      std::count_if(rows_[r].cells.begin(), rows_[r].cells.end(),
                    [](std::uint8_t c) { return c != kGap; }));
}

Alignment Alignment::subset(std::span<const std::size_t> row_indices) const {
  std::vector<AlignedRow> rows;
  rows.reserve(row_indices.size());
  for (std::size_t r : row_indices) {
    if (r >= rows_.size()) throw std::out_of_range("Alignment::subset row");
    rows.push_back(rows_[r]);
  }
  return Alignment(std::move(rows), kind_);
}

Alignment in_input_order(const Alignment& aln,
                         std::span<const bio::Sequence> seqs) {
  std::unordered_map<std::string, std::size_t> row_by_id;
  for (std::size_t r = 0; r < aln.num_rows(); ++r)
    row_by_id.emplace(aln.row(r).id, r);
  std::vector<std::size_t> order;
  order.reserve(seqs.size());
  for (const auto& s : seqs) {
    const auto it = row_by_id.find(s.id());
    if (it == row_by_id.end())
      throw std::logic_error("in_input_order: lost sequence " + s.id());
    order.push_back(it->second);
  }
  return aln.subset(order);
}

std::size_t Alignment::strip_all_gap_columns() {
  const std::size_t cols = num_cols();
  std::vector<bool> keep(cols, false);
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < cols; ++c)
      if (row.cells[c] != kGap) keep[c] = true;

  std::size_t removed = 0;
  for (auto& row : rows_) {
    std::size_t w = 0;
    for (std::size_t c = 0; c < cols; ++c)
      if (keep[c]) row.cells[w++] = row.cells[c];
    row.cells.resize(w);
  }
  for (std::size_t c = 0; c < cols; ++c)
    if (!keep[c]) ++removed;
  return removed;
}

void Alignment::insert_gap_columns(std::span<const std::size_t> positions) {
  if (positions.empty()) return;
  if (!std::is_sorted(positions.begin(), positions.end()))
    throw std::invalid_argument("insert_gap_columns: positions not sorted");
  const std::size_t cols = num_cols();
  if (!positions.empty() && positions.back() > cols)
    throw std::out_of_range("insert_gap_columns: position past end");

  for (auto& row : rows_) {
    std::vector<std::uint8_t> cells;
    cells.reserve(cols + positions.size());
    std::size_t pi = 0;
    for (std::size_t c = 0; c <= cols; ++c) {
      while (pi < positions.size() && positions[pi] == c) {
        cells.push_back(kGap);
        ++pi;
      }
      if (c < cols) cells.push_back(row.cells[c]);
    }
    row.cells = std::move(cells);
  }
}

void Alignment::append_rows(const Alignment& other) {
  if (other.empty()) return;
  if (kind_ != other.kind_)
    throw std::invalid_argument("append_rows: alphabet mismatch");
  if (!rows_.empty() && other.num_cols() != num_cols())
    throw std::invalid_argument("append_rows: column count mismatch");
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
}

void Alignment::validate() const {
  if (rows_.empty()) return;
  const std::size_t cols = rows_.front().cells.size();
  const auto alpha_size =
      static_cast<std::uint8_t>(bio::Alphabet::get(kind_).size());
  for (const auto& row : rows_) {
    if (row.id.empty()) throw std::logic_error("Alignment: empty row id");
    if (row.cells.size() != cols)
      throw std::logic_error("Alignment: ragged rows (row '" + row.id + "')");
    for (std::uint8_t c : row.cells)
      if (c != kGap && c >= alpha_size)
        throw std::logic_error("Alignment: code out of range in '" + row.id +
                               "'");
  }
}

Alignment read_aligned_fasta(std::istream& in, bio::AlphabetKind kind) {
  const bio::Alphabet& alpha = bio::Alphabet::get(kind);
  std::vector<AlignedRow> rows;
  std::string line;
  bool have_record = false;
  AlignedRow current;

  auto flush = [&] {
    if (have_record) rows.push_back(std::move(current));
    current = AlignedRow{};
  };

  while (std::getline(in, line)) {
    const std::string_view t = util::trim(line);
    if (t.empty()) continue;
    if (t.front() == '>') {
      flush();
      have_record = true;
      const std::string_view header = util::trim(t.substr(1));
      const std::size_t sp = header.find_first_of(" \t");
      current.id = std::string(sp == std::string_view::npos
                                   ? header
                                   : header.substr(0, sp));
    } else {
      if (!have_record)
        throw std::runtime_error("aligned FASTA: data before first header");
      for (char c : t)
        current.cells.push_back(c == '-' || c == '.' ? Alignment::kGap
                                                     : alpha.encode(c));
    }
  }
  flush();
  return Alignment(std::move(rows), kind);
}

void write_aligned_fasta(std::ostream& out, const Alignment& aln,
                         std::size_t width) {
  for (std::size_t r = 0; r < aln.num_rows(); ++r) {
    out << '>' << aln.row(r).id << '\n';
    const std::string text = aln.row_text(r);
    for (std::size_t i = 0; i < text.size(); i += width)
      out << text.substr(i, width) << '\n';
    if (text.empty()) out << '\n';
  }
}

}  // namespace salign::msa
