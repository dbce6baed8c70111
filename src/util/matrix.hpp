#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace salign::util {

/// Dense row-major 2-D array. Used for DP tables, distance matrices and
/// profile storage. Bounds are checked only via at(); operator() is unchecked
/// for inner-loop performance (Core Guidelines ES.103-style: validate at the
/// boundary, not per element).
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  T& at(std::size_t r, std::size_t c) {
    check(r, c);
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }

  void fill(const T& v) { data_.assign(data_.size(), v); }

  [[nodiscard]] const std::vector<T>& data() const { return data_; }

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_)
      throw std::out_of_range("Matrix index out of range");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Symmetric matrix stored as the strict lower triangle plus diagonal;
/// distance matrices over thousands of sequences halve their footprint.
template <typename T>
class SymmetricMatrix {
 public:
  SymmetricMatrix() = default;
  explicit SymmetricMatrix(std::size_t n, T fill = T{})
      : n_(n), data_(n * (n + 1) / 2, fill) {}

  [[nodiscard]] std::size_t size() const { return n_; }

  T& operator()(std::size_t i, std::size_t j) { return data_[index(i, j)]; }
  const T& operator()(std::size_t i, std::size_t j) const {
    return data_[index(i, j)];
  }

 private:
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const {
    if (i < j) std::swap(i, j);
    return i * (i + 1) / 2 + j;
  }
  std::size_t n_ = 0;
  std::vector<T> data_;
};

/// Maps a linear index onto the strict-lower-triangle pair enumeration
/// (1,0), (2,0), (2,1), (3,0), ... — i ascending, then j < i ascending, so
/// pair p = i(i-1)/2 + j. The threaded all-pairs drivers chunk this index:
/// every worker gets the same number of pairs however uneven the rows are.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> pair_from_index(
    std::size_t p) {
  // Invert the triangular number: the float estimate is correct to +-1,
  // fixed up exactly by the adjustment loops.
  auto i = static_cast<std::size_t>(
      (std::sqrt(8.0 * static_cast<double>(p) + 1.0) + 1.0) / 2.0);
  while (i >= 1 && i * (i - 1) / 2 > p) --i;
  while ((i + 1) * i / 2 <= p) ++i;
  return {i, p - i * (i - 1) / 2};
}

}  // namespace salign::util
