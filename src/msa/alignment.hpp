#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "bio/sequence.hpp"

namespace salign::msa {

/// One row of a multiple alignment: a sequence id plus gapped residue codes.
struct AlignedRow {
  std::string id;
  std::vector<std::uint8_t> cells;  ///< alphabet codes or Alignment::kGap
};

/// A multiple sequence alignment: equal-length gapped rows over one
/// alphabet. This is the output type of every aligner in the library and
/// the unit that flows through the Sample-Align-D pipeline (local
/// alignments, ancestor alignments, and the final glued result are all
/// Alignment values).
class Alignment {
 public:
  static constexpr std::uint8_t kGap = 0xFF;

  Alignment() : kind_(bio::AlphabetKind::AminoAcid) {}
  Alignment(std::vector<AlignedRow> rows, bio::AlphabetKind kind);

  /// Single-sequence alignment (a leaf in progressive alignment).
  static Alignment from_sequence(const bio::Sequence& seq);

  /// Builds from (id, gapped text) pairs; '-' and '.' are gaps. Test helper
  /// and aligned-FASTA reader backend.
  static Alignment from_texts(
      std::span<const std::pair<std::string, std::string>> rows,
      bio::AlphabetKind kind = bio::AlphabetKind::AminoAcid);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const {
    return rows_.empty() ? 0 : rows_.front().cells.size();
  }
  [[nodiscard]] bool empty() const { return rows_.empty(); }
  [[nodiscard]] bio::AlphabetKind alphabet_kind() const { return kind_; }
  [[nodiscard]] const bio::Alphabet& alphabet() const {
    return bio::Alphabet::get(kind_);
  }

  [[nodiscard]] const AlignedRow& row(std::size_t r) const { return rows_[r]; }
  [[nodiscard]] std::span<const AlignedRow> rows() const { return rows_; }
  [[nodiscard]] std::uint8_t cell(std::size_t r, std::size_t c) const {
    return rows_[r].cells[c];
  }
  [[nodiscard]] bool is_gap(std::size_t r, std::size_t c) const {
    return cell(r, c) == kGap;
  }

  /// Gapped text of a row ('-' for gaps).
  [[nodiscard]] std::string row_text(std::size_t r) const;

  /// The ungapped sequence of a row (id preserved).
  [[nodiscard]] bio::Sequence degapped(std::size_t r) const;

  /// Number of non-gap cells in a row.
  [[nodiscard]] std::size_t residue_count(std::size_t r) const;

  /// Sub-alignment of the given rows (columns untouched).
  [[nodiscard]] Alignment subset(std::span<const std::size_t> row_indices) const;

  /// Removes columns that are gaps in every row; returns how many were cut.
  std::size_t strip_all_gap_columns();

  /// Inserts gap columns *before* the given current-coordinate positions
  /// (position == num_cols() appends). Positions may repeat for multi-column
  /// inserts and must be sorted ascending.
  void insert_gap_columns(std::span<const std::size_t> positions);

  /// Appends the rows of `other` (same alphabet, same column count).
  void append_rows(const Alignment& other);

  /// Throws std::logic_error if rows have unequal lengths, codes are out of
  /// range, or ids are empty. All mutating APIs keep these invariants; this
  /// is the externally-checkable contract used by the tests.
  void validate() const;

 private:
  std::vector<AlignedRow> rows_;
  bio::AlphabetKind kind_;
};

/// The rows of `aln` reordered to follow `seqs` (matched by id): aligners
/// build rows in guide-tree leaf order, and every caller wants them back in
/// input order. Throws std::logic_error naming the first id of `seqs` that
/// has no row.
[[nodiscard]] Alignment in_input_order(const Alignment& aln,
                                       std::span<const bio::Sequence> seqs);

/// Reads aligned FASTA ('-'/'.' are gaps); all records must have equal
/// lengths.
[[nodiscard]] Alignment read_aligned_fasta(
    std::istream& in, bio::AlphabetKind kind = bio::AlphabetKind::AminoAcid);

/// Writes aligned FASTA wrapping at `width`.
void write_aligned_fasta(std::ostream& out, const Alignment& aln,
                         std::size_t width = 60);

}  // namespace salign::msa
