#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/substitution_matrix.hpp"
#include "msa/alignment.hpp"
#include "util/matrix.hpp"

namespace salign::msa {

/// The per-row weights a Profile of `rows` rows accumulates: `weights`
/// (empty = uniform) divided by their sum, each rounded to float. Equal
/// results give equal profiles of the same alignment, bit for bit. Throws
/// std::invalid_argument on a weight count other than `rows`, a negative
/// weight or a non-positive sum.
[[nodiscard]] std::vector<float> normalized_weights(
    std::span<const double> weights, std::size_t rows);

/// Column-frequency profile of an alignment, the operand of profile-profile
/// alignment (MUSCLE's PSP scoring function; Edgar BMC Bioinf. 2004).
///
/// For column c, `freq(c, a)` is the (sequence-weight normalized) fraction of
/// rows carrying residue `a`; frequencies over residues sum to the column
/// occupancy (1 - gap fraction), so gappy columns contribute proportionally
/// less match score — the standard PSP behaviour.
class Profile {
 public:
  /// `weights` are per-row sequence weights (empty = uniform). They are
  /// normalized internally so total weight is 1 per column.
  Profile(const Alignment& aln, const bio::SubstitutionMatrix& matrix,
          std::span<const double> weights = {});

  [[nodiscard]] std::size_t num_cols() const { return cols_; }
  [[nodiscard]] int alphabet_size() const { return alpha_size_; }
  [[nodiscard]] const bio::SubstitutionMatrix& matrix() const {
    return *matrix_;
  }

  [[nodiscard]] float freq(std::size_t col, std::uint8_t residue) const {
    return freqs_(col, residue);
  }
  /// 1 - gap fraction of the column (weighted).
  [[nodiscard]] float occupancy(std::size_t col) const { return occ_[col]; }

  /// PSP match score between column `ca` of this profile and column `cb` of
  /// `other`: sum_{a,b} f_a(ca) g_b(cb) S(a, b).
  [[nodiscard]] float psp(const Profile& other, std::size_t ca,
                          std::size_t cb) const;

 private:
  const bio::SubstitutionMatrix* matrix_;
  std::size_t cols_ = 0;
  int alpha_size_ = 0;
  util::Matrix<float> freqs_;  // cols x alphabet_size
  std::vector<float> occ_;
};

}  // namespace salign::msa
