#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/rng.hpp"

namespace readys::tensor {

/// Dense row-major matrix of doubles.
///
/// This is the only numeric container in the library: vectors are 1xN or
/// Nx1 matrices, scalars are 1x1. Double precision keeps finite-difference
/// gradient checks tight; the networks involved are tiny (hidden size
/// <= 128), so there is no performance reason to drop to float.
class Tensor {
 public:
  /// Empty 0x0 tensor.
  Tensor() noexcept = default;

  /// rows x cols tensor filled with `fill`.
  Tensor(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Builds from nested initializer lists; all rows must have equal width.
  static Tensor from_rows(
      std::initializer_list<std::initializer_list<double>> rows);

  /// 1xN row vector from values.
  static Tensor row(std::initializer_list<double> values);
  static Tensor row(const std::vector<double>& values);

  /// All-zero / all-one tensors.
  static Tensor zeros(std::size_t rows, std::size_t cols);
  static Tensor ones(std::size_t rows, std::size_t cols);

  /// Identity matrix.
  static Tensor eye(std::size_t n);

  /// I.i.d. normal entries with the given stddev.
  static Tensor randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                      double stddev = 1.0);

  /// Uniform entries in [lo, hi).
  static Tensor rand_uniform(std::size_t rows, std::size_t cols,
                             util::Rng& rng, double lo, double hi);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }
  bool same_shape(const Tensor& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  double& at(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  double& operator[](std::size_t i) noexcept { return data_[i]; }
  double operator[](std::size_t i) const noexcept { return data_[i]; }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Scalar access; requires size() == 1.
  double item() const;

  void fill(double v) noexcept;

  /// In-place elementwise accumulate; shapes must match.
  void add_(const Tensor& other);

  /// In-place scale by a constant.
  void scale_(double s) noexcept;

  /// Sum of all entries.
  double sum() const noexcept;

  /// Largest absolute entry (0 for empty).
  double abs_max() const noexcept;

  /// Frobenius norm.
  double norm() const noexcept;

  /// Exact elementwise equality.
  bool operator==(const Tensor& other) const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Value-level (non-autograd) matrix product, used by the simulator-side
/// code and by tests.
Tensor matmul_value(const Tensor& a, const Tensor& b);

/// Square sparse matrix in compressed-sparse-row form: row i's nonzero
/// columns are col[row_ptr[i] .. row_ptr[i+1]), ascending, with matching
/// values in val. The only storage of a GCN's normalized adjacency Â
/// (see nn::normalized_adjacency_csr), read by the f64 autograd product
/// (spmm in ops.hpp) and the f32 inference kernel (f32::spmm_bias).
struct SparseAdj {
  std::vector<std::size_t> row_ptr;  ///< n + 1 entries
  std::vector<std::size_t> col;      ///< nnz column indices
  std::vector<double> val;           ///< nnz values, aligned with col

  std::size_t rows() const noexcept {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }

  /// Stacks `block` block-diagonally after the current rows: its rows
  /// append and its columns shift by the current row count, so several
  /// graphs' adjacencies pack into one matrix.
  void append_block(const SparseAdj& block);
};

}  // namespace readys::tensor
