#include "tensor/tensor.hpp"

#include <cmath>
#include <stdexcept>

namespace readys::tensor {

Tensor::Tensor(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor Tensor::from_rows(
    std::initializer_list<std::initializer_list<double>> rows) {
  const std::size_t r = rows.size();
  const std::size_t c = r == 0 ? 0 : rows.begin()->size();
  Tensor t(r, c);
  std::size_t i = 0;
  for (const auto& row : rows) {
    if (row.size() != c) {
      throw std::invalid_argument("Tensor::from_rows: ragged rows");
    }
    for (double v : row) t.data_[i++] = v;
  }
  return t;
}

Tensor Tensor::row(std::initializer_list<double> values) {
  Tensor t(1, values.size());
  std::size_t i = 0;
  for (double v : values) t.data_[i++] = v;
  return t;
}

Tensor Tensor::row(const std::vector<double>& values) {
  Tensor t(1, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) t.data_[i] = values[i];
  return t;
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) {
  return Tensor(rows, cols, 0.0);
}

Tensor Tensor::ones(std::size_t rows, std::size_t cols) {
  return Tensor(rows, cols, 1.0);
}

Tensor Tensor::eye(std::size_t n) {
  Tensor t(n, n);
  for (std::size_t i = 0; i < n; ++i) t.at(i, i) = 1.0;
  return t;
}

Tensor Tensor::randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                     double stddev) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = rng.normal(0.0, stddev);
  return t;
}

Tensor Tensor::rand_uniform(std::size_t rows, std::size_t cols,
                            util::Rng& rng, double lo, double hi) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

double Tensor::item() const {
  if (size() != 1) {
    throw std::logic_error("Tensor::item: tensor is not a scalar");
  }
  return data_[0];
}

void Tensor::fill(double v) noexcept {
  for (auto& x : data_) x = v;
}

void Tensor::add_(const Tensor& other) {
  if (!same_shape(other)) {
    throw std::invalid_argument("Tensor::add_: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::scale_(double s) noexcept {
  for (auto& x : data_) x *= s;
}

double Tensor::sum() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc += x;
  return acc;
}

double Tensor::abs_max() const noexcept {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

double Tensor::norm() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

bool Tensor::operator==(const Tensor& other) const noexcept {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         data_ == other.data_;
}

Tensor matmul_value(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul_value: inner dimension mismatch");
  }
  Tensor out(a.rows(), b.cols());
  // i-k-j loop order: streams through b and out row-wise (cache friendly).
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data() + k * b.cols();
      double* orow = out.data() + i * out.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

void SparseAdj::append_block(const SparseAdj& block) {
  const std::size_t shift = rows();
  const std::size_t nnz = col.size();
  if (row_ptr.empty()) row_ptr.push_back(0);
  for (std::size_t i = 1; i < block.row_ptr.size(); ++i) {
    row_ptr.push_back(nnz + block.row_ptr[i]);
  }
  for (const std::size_t c : block.col) col.push_back(shift + c);
  val.insert(val.end(), block.val.begin(), block.val.end());
}

}  // namespace readys::tensor
