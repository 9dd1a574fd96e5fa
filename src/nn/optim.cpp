#include "nn/optim.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace readys::nn {

namespace {

[[noreturn]] void state_fail(const std::string& what) {
  throw std::runtime_error("Optimizer::load_state_rows: " + what);
}

std::string tensor_row(const char* tag, std::size_t k, const Tensor& t) {
  std::ostringstream os;
  os << std::setprecision(17) << tag << ' ' << k << ' ' << t.rows() << ' '
     << t.cols();
  for (std::size_t i = 0; i < t.size(); ++i) os << ' ' << t[i];
  return os.str();
}

/// Parses "<tag> <k> <rows> <cols> <values...>" into `out`, which must
/// already have the expected shape (checked against the row header).
void parse_tensor_row(const std::string& row, const char* tag,
                      std::size_t expect_k, Tensor& out) {
  std::istringstream is(row);
  std::string got_tag;
  std::size_t k = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  if (!(is >> got_tag >> k >> rows >> cols)) {
    state_fail("malformed row '" + row + "'");
  }
  if (got_tag != tag || k != expect_k) {
    state_fail("expected row '" + std::string(tag) + " " +
               std::to_string(expect_k) + " ...', found '" + row + "'");
  }
  if (rows != out.rows() || cols != out.cols()) {
    state_fail("shape mismatch for " + std::string(tag) + "[" +
               std::to_string(k) + "]: optimizer expects " +
               std::to_string(out.rows()) + "x" + std::to_string(out.cols()) +
               ", row has " + std::to_string(rows) + "x" +
               std::to_string(cols));
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!(is >> out[i])) {
      state_fail("truncated values in row '" + std::string(tag) + " " +
                 std::to_string(k) + "': expected " +
                 std::to_string(out.size()) + ", found " + std::to_string(i));
    }
  }
  double extra = 0.0;
  if (is >> extra) {
    state_fail("trailing values in row '" + std::string(tag) + " " +
               std::to_string(k) + "'");
  }
}

}  // namespace

Optimizer::Optimizer(std::vector<Var> params) : params_(std::move(params)) {}

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

bool Optimizer::grads_finite() const {
  for (const auto& p : params_) {
    const Tensor& g = p.grad();
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (!std::isfinite(g[i])) return false;
    }
  }
  return true;
}

void Optimizer::load_state_rows(const std::vector<std::string>& rows) {
  if (!rows.empty()) {
    state_fail("this optimizer is stateless but " +
               std::to_string(rows.size()) + " state rows were provided");
  }
}

double Optimizer::clip_grad_norm(double max_norm) {
  double total = 0.0;
  for (auto& p : params_) {
    const Tensor& g = p.grad();
    for (std::size_t i = 0; i < g.size(); ++i) total += g[i] * g[i];
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    const double factor = max_norm / norm;
    for (auto& p : params_) {
      // grad() returns const; go through the node to scale in place.
      Tensor& g = p.node()->ensure_grad();
      g.scale_(factor);
    }
  }
  return norm;
}

Adam::Adam(std::vector<Var> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(Tensor::zeros(p.rows(), p.cols()));
    v_.push_back(Tensor::zeros(p.rows(), p.cols()));
  }
}

std::vector<std::string> Adam::state_rows() const {
  std::vector<std::string> rows;
  rows.reserve(1 + 2 * m_.size());
  rows.push_back("adam " + std::to_string(t_) + " " +
                 std::to_string(m_.size()));
  for (std::size_t k = 0; k < m_.size(); ++k) {
    rows.push_back(tensor_row("m", k, m_[k]));
    rows.push_back(tensor_row("v", k, v_[k]));
  }
  return rows;
}

void Adam::load_state_rows(const std::vector<std::string>& rows) {
  if (rows.empty()) state_fail("adam state requires a header row");
  std::istringstream header(rows[0]);
  std::string tag;
  long t = 0;
  std::size_t n = 0;
  if (!(header >> tag >> t >> n) || tag != "adam" || t < 0) {
    state_fail("malformed adam header '" + rows[0] + "'");
  }
  if (n != m_.size() || rows.size() != 1 + 2 * n) {
    state_fail("adam state for " + std::to_string(n) + " parameters (" +
               std::to_string(rows.size()) + " rows), optimizer has " +
               std::to_string(m_.size()));
  }
  // Validate into copies, then apply: a bad row must not leave the
  // moments half-overwritten.
  std::vector<Tensor> m = m_;
  std::vector<Tensor> v = v_;
  for (std::size_t k = 0; k < n; ++k) {
    parse_tensor_row(rows[1 + 2 * k], "m", k, m[k]);
    parse_tensor_row(rows[2 + 2 * k], "v", k, v[k]);
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Tensor& w = params_[k].mutable_value();
    const Tensor& g = params_[k].grad();
    Tensor& m = m_[k];
    Tensor& v = v_[k];
    for (std::size_t i = 0; i < w.size(); ++i) {
      m[i] = beta1_ * m[i] + (1.0 - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0 - beta2_) * g[i] * g[i];
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      w[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace readys::nn
