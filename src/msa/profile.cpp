#include "msa/profile.hpp"

#include <numeric>
#include <stdexcept>

namespace salign::msa {

std::vector<float> normalized_weights(std::span<const double> weights,
                                      std::size_t rows) {
  if (!weights.empty() && weights.size() != rows)
    throw std::invalid_argument("Profile: weight count != row count");
  std::vector<double> w(rows, 1.0);
  if (!weights.empty()) w.assign(weights.begin(), weights.end());
  for (double x : w)
    if (x < 0.0) throw std::invalid_argument("Profile: negative weight");
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  if (total <= 0.0)
    throw std::invalid_argument("Profile: non-positive weights");
  std::vector<float> out(rows);
  for (std::size_t r = 0; r < rows; ++r)
    out[r] = static_cast<float>(w[r] / total);
  return out;
}

Profile::Profile(const Alignment& aln, const bio::SubstitutionMatrix& matrix,
                 std::span<const double> weights)
    : matrix_(&matrix),
      cols_(aln.num_cols()),
      alpha_size_(aln.alphabet().size()) {
  if (aln.empty()) throw std::invalid_argument("Profile: empty alignment");
  if (matrix.alphabet_kind() != aln.alphabet_kind())
    throw std::invalid_argument("Profile: matrix/alignment alphabet mismatch");
  const std::size_t rows = aln.num_rows();
  const std::vector<float> w = normalized_weights(weights, rows);

  freqs_ = util::Matrix<float>(cols_, static_cast<std::size_t>(alpha_size_));
  occ_.assign(cols_, 0.0F);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto& cells = aln.row(r).cells;
    const float wr = w[r];
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::uint8_t code = cells[c];
      if (code == Alignment::kGap) continue;
      freqs_(c, code) += wr;
      occ_[c] += wr;
    }
  }
}

float Profile::psp(const Profile& other, std::size_t ca, std::size_t cb) const {
  if (alpha_size_ != other.alpha_size_)
    throw std::invalid_argument("Profile::psp: alphabet mismatch");
  float s = 0.0F;
  for (int a = 0; a < alpha_size_; ++a) {
    const float fa = freqs_(ca, static_cast<std::size_t>(a));
    if (fa == 0.0F) continue;
    float inner = 0.0F;
    for (int b = 0; b < alpha_size_; ++b) {
      const float gb = other.freqs_(cb, static_cast<std::size_t>(b));
      if (gb == 0.0F) continue;
      inner += gb * matrix_->score(static_cast<std::uint8_t>(a),
                                   static_cast<std::uint8_t>(b));
    }
    s += fa * inner;
  }
  return s;
}

}  // namespace salign::msa
