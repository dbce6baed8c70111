#include "align/engine/query_profile.hpp"

#include "bio/alphabet.hpp"

namespace salign::align::engine {

QueryProfile::QueryProfile(std::span<const std::uint8_t> b,
                           const bio::SubstitutionMatrix& matrix) {
  const auto alpha = static_cast<std::size_t>(
      bio::Alphabet::get(matrix.alphabet_kind()).size());
  n_ = b.size();
  stride_ = (n_ + 8) & ~std::size_t{7};  // >= n_ + 1, multiple of 8
  scores_.assign(alpha * stride_ + 2 * kPad, 0.0F);
  for (std::size_t c = 0; c < alpha; ++c) {
    float* out = scores_.data() + kPad + c * stride_;
    for (std::size_t j = 0; j < n_; ++j)
      out[j] = matrix.score(static_cast<std::uint8_t>(c), b[j]);
  }
}

}  // namespace salign::align::engine
