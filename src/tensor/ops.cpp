#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace readys::tensor {

namespace {

using detail::Node;

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Accumulates `g` into the parent's grad if it participates in autodiff.
void accumulate(const std::shared_ptr<Node>& parent, const Tensor& g) {
  if (!parent->requires_grad) return;
  parent->ensure_grad().add_(g);
}

enum class Broadcast { kNone, kRow, kScalar };

Broadcast broadcast_kind(const Tensor& a, const Tensor& b, const char* op) {
  if (a.same_shape(b)) return Broadcast::kNone;
  if (b.rows() == 1 && b.cols() == a.cols()) return Broadcast::kRow;
  if (b.rows() == 1 && b.cols() == 1) return Broadcast::kScalar;
  throw std::invalid_argument(std::string(op) + ": incompatible shapes");
}

/// Reduces a full-shape gradient back to the broadcast operand's shape.
Tensor reduce_for_broadcast(const Tensor& g, Broadcast kind) {
  if (kind == Broadcast::kNone) return g;
  if (kind == Broadcast::kScalar) {
    Tensor out(1, 1);
    out[0] = g.sum();
    return out;
  }
  Tensor out(1, g.cols());
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t c = 0; c < g.cols(); ++c) out[c] += g.at(r, c);
  }
  return out;
}

/// Generic elementwise unary op with derivative expressed from (x, y).
template <typename Fwd, typename Bwd>
Var unary_elementwise(const Var& a, Fwd fwd, Bwd dydx) {
  Tensor out(a.rows(), a.cols());
  const Tensor& x = a.value();
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = fwd(x[i]);
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa, dydx](Node& self) {
    if (!pa->requires_grad) return;
    Tensor& pg = pa->ensure_grad();
    const Tensor& input = pa->value;
    for (std::size_t i = 0; i < input.size(); ++i) {
      pg[i] += self.grad[i] * dydx(input[i], self.value[i]);
    }
  });
}

}  // namespace

Var matmul(const Var& a, const Var& b) {
  require(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Tensor out = matmul_value(a.value(), b.value());
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  auto pb = b.node();
  return Var::make_op(std::move(out), {a, b}, [pa, pb](Node& self) {
    const Tensor& g = self.grad;
    if (pa->requires_grad) {
      // dA = G * B^T, with B^T materialized so the hot loop streams
      // contiguous rows into independent accumulators — the form the
      // compiler can vectorize without reassociating any reduction (each
      // dA element still gathers its terms in ascending j).
      Tensor& ga = pa->ensure_grad();
      const Tensor& bv = pb->value;
      const std::size_t K = bv.rows();
      const std::size_t N = bv.cols();
      Tensor bt(N, K);
      for (std::size_t k = 0; k < K; ++k) {
        const double* brow = bv.data() + k * N;
        for (std::size_t j = 0; j < N; ++j) bt.at(j, k) = brow[j];
      }
      for (std::size_t i = 0; i < ga.rows(); ++i) {
        double* garow = ga.data() + i * K;
        const double* grow = g.data() + i * N;
        for (std::size_t j = 0; j < N; ++j) {
          const double gij = grow[j];
          if (gij == 0.0) continue;
          const double* btrow = bt.data() + j * K;
          for (std::size_t k = 0; k < K; ++k) garow[k] += gij * btrow[k];
        }
      }
    }
    if (pb->requires_grad) {
      // dB = A^T * G in the same scattered i-k-j form (per-element terms
      // still accumulate in ascending i; A's ReLU zeros skip whole rows
      // of work, as in matmul_value).
      Tensor& gb = pb->ensure_grad();
      const Tensor& av = pa->value;
      const std::size_t K = av.cols();
      const std::size_t N = g.cols();
      for (std::size_t i = 0; i < av.rows(); ++i) {
        const double* arow = av.data() + i * K;
        const double* grow = g.data() + i * N;
        for (std::size_t k = 0; k < K; ++k) {
          const double aik = arow[k];
          if (aik == 0.0) continue;
          double* gbrow = gb.data() + k * N;
          for (std::size_t j = 0; j < N; ++j) gbrow[j] += aik * grow[j];
        }
      }
    }
  });
}

Var spmm(const SparseAdj& a, const Var& h) {
  require(a.rows() == h.rows(), "spmm: row count mismatch");
  const Tensor& hv = h.value();
  const std::size_t cols = hv.cols();
  Tensor out(a.rows(), cols);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* orow = out.data() + i * cols;
    for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      const double aik = a.val[p];
      const double* hrow = hv.data() + a.col[p] * cols;
      for (std::size_t j = 0; j < cols; ++j) orow[j] += aik * hrow[j];
    }
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto ph = h.node();
  return Var::make_op(std::move(out), {h}, [ph, a](Node& self) {
    if (!ph->requires_grad) return;
    // dH = A^T * G: matmul's dB kernel over the stored nonzeros only.
    Tensor& gh = ph->ensure_grad();
    const Tensor& g = self.grad;
    const std::size_t width = g.cols();
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double* grow = g.data() + i * width;
      for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
        const double aik = a.val[p];
        double* ghrow = gh.data() + a.col[p] * width;
        for (std::size_t j = 0; j < width; ++j) ghrow[j] += aik * grow[j];
      }
    }
  });
}

Var add(const Var& a, const Var& b) {
  const Broadcast kind = broadcast_kind(a.value(), b.value(), "add");
  Tensor out = a.value();
  const Tensor& bv = b.value();
  switch (kind) {
    case Broadcast::kNone:
      out.add_(bv);
      break;
    case Broadcast::kRow:
      for (std::size_t r = 0; r < out.rows(); ++r) {
        for (std::size_t c = 0; c < out.cols(); ++c) out.at(r, c) += bv[c];
      }
      break;
    case Broadcast::kScalar:
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += bv[0];
      break;
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  auto pb = b.node();
  return Var::make_op(std::move(out), {a, b}, [pa, pb, kind](Node& self) {
    accumulate(pa, self.grad);
    if (pb->requires_grad) {
      pb->ensure_grad().add_(reduce_for_broadcast(self.grad, kind));
    }
  });
}

Var sub(const Var& a, const Var& b) {
  const Broadcast kind = broadcast_kind(a.value(), b.value(), "sub");
  Tensor out = a.value();
  const Tensor& bv = b.value();
  switch (kind) {
    case Broadcast::kNone:
      for (std::size_t i = 0; i < out.size(); ++i) out[i] -= bv[i];
      break;
    case Broadcast::kRow:
      for (std::size_t r = 0; r < out.rows(); ++r) {
        for (std::size_t c = 0; c < out.cols(); ++c) out.at(r, c) -= bv[c];
      }
      break;
    case Broadcast::kScalar:
      for (std::size_t i = 0; i < out.size(); ++i) out[i] -= bv[0];
      break;
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  auto pb = b.node();
  return Var::make_op(std::move(out), {a, b}, [pa, pb, kind](Node& self) {
    accumulate(pa, self.grad);
    if (pb->requires_grad) {
      Tensor g = reduce_for_broadcast(self.grad, kind);
      g.scale_(-1.0);
      pb->ensure_grad().add_(g);
    }
  });
}

Var mul(const Var& a, const Var& b) {
  const Broadcast kind = broadcast_kind(a.value(), b.value(), "mul");
  require(kind != Broadcast::kRow, "mul: row broadcast not supported");
  Tensor out = a.value();
  const Tensor& bv = b.value();
  if (kind == Broadcast::kNone) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] *= bv[i];
  } else {
    out.scale_(bv[0]);
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  auto pb = b.node();
  return Var::make_op(std::move(out), {a, b}, [pa, pb, kind](Node& self) {
    const Tensor& g = self.grad;
    if (pa->requires_grad) {
      Tensor& ga = pa->ensure_grad();
      if (kind == Broadcast::kNone) {
        for (std::size_t i = 0; i < g.size(); ++i) {
          ga[i] += g[i] * pb->value[i];
        }
      } else {
        for (std::size_t i = 0; i < g.size(); ++i) {
          ga[i] += g[i] * pb->value[0];
        }
      }
    }
    if (pb->requires_grad) {
      Tensor& gb = pb->ensure_grad();
      if (kind == Broadcast::kNone) {
        for (std::size_t i = 0; i < g.size(); ++i) {
          gb[i] += g[i] * pa->value[i];
        }
      } else {
        double acc = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) acc += g[i] * pa->value[i];
        gb[0] += acc;
      }
    }
  });
}

Var scale(const Var& a, double s) {
  Tensor out = a.value();
  out.scale_(s);
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa, s](Node& self) {
    if (!pa->requires_grad) return;
    Tensor g = self.grad;
    g.scale_(s);
    pa->ensure_grad().add_(g);
  });
}

Var add_scalar(const Var& a, double s) {
  Tensor out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += s;
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a},
                      [pa](Node& self) { accumulate(pa, self.grad); });
}

Var neg(const Var& a) { return scale(a, -1.0); }

Var relu(const Var& a) {
  return unary_elementwise(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Var leaky_relu(const Var& a, double slope) {
  return unary_elementwise(
      a, [slope](double x) { return x > 0.0 ? x : slope * x; },
      [slope](double x, double) { return x > 0.0 ? 1.0 : slope; });
}

Var tanh_op(const Var& a) {
  return unary_elementwise(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; });
}

Var sigmoid(const Var& a) {
  return unary_elementwise(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double, double y) { return y * (1.0 - y); });
}

Var exp_op(const Var& a) {
  return unary_elementwise(
      a, [](double x) { return std::exp(x); },
      [](double, double y) { return y; });
}

Var log_op(const Var& a, double eps) {
  return unary_elementwise(
      a, [eps](double x) { return std::log(std::max(x, eps)); },
      [eps](double x, double) { return 1.0 / std::max(x, eps); });
}

Var square(const Var& a) {
  return unary_elementwise(
      a, [](double x) { return x * x; },
      [](double x, double) { return 2.0 * x; });
}

Var sum_all(const Var& a) {
  Tensor out(1, 1);
  out[0] = a.value().sum();
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa](Node& self) {
    if (!pa->requires_grad) return;
    Tensor& g = pa->ensure_grad();
    const double gs = self.grad[0];
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += gs;
  });
}

Var mean_all(const Var& a) {
  require(a.value().size() > 0, "mean_all: empty tensor");
  return scale(sum_all(a), 1.0 / static_cast<double>(a.value().size()));
}

Var sum_rows(const Var& a) {
  Tensor out(1, a.cols());
  const Tensor& x = a.value();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) out[c] += x.at(r, c);
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa](Node& self) {
    if (!pa->requires_grad) return;
    Tensor& g = pa->ensure_grad();
    for (std::size_t r = 0; r < g.rows(); ++r) {
      for (std::size_t c = 0; c < g.cols(); ++c) g.at(r, c) += self.grad[c];
    }
  });
}

Var mean_rows(const Var& a) {
  require(a.rows() > 0, "mean_rows: empty tensor");
  return scale(sum_rows(a), 1.0 / static_cast<double>(a.rows()));
}

Var max_rows(const Var& a) {
  require(a.rows() > 0, "max_rows: empty tensor");
  const Tensor& x = a.value();
  Tensor out(1, x.cols());
  std::vector<std::size_t> argmax(x.cols(), 0);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    double best = x.at(0, c);
    for (std::size_t r = 1; r < x.rows(); ++r) {
      if (x.at(r, c) > best) {
        best = x.at(r, c);
        argmax[c] = r;
      }
    }
    out[c] = best;
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(
      std::move(out), {a}, [pa, argmax = std::move(argmax)](Node& self) {
        if (!pa->requires_grad) return;
        Tensor& g = pa->ensure_grad();
        for (std::size_t c = 0; c < g.cols(); ++c) {
          g.at(argmax[c], c) += self.grad[c];
        }
      });
}

Var concat_cols(const Var& a, const Var& b) {
  require(a.rows() == b.rows(), "concat_cols: row count mismatch");
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  Tensor out(av.rows(), av.cols() + bv.cols());
  for (std::size_t r = 0; r < av.rows(); ++r) {
    for (std::size_t c = 0; c < av.cols(); ++c) out.at(r, c) = av.at(r, c);
    for (std::size_t c = 0; c < bv.cols(); ++c) {
      out.at(r, av.cols() + c) = bv.at(r, c);
    }
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  auto pb = b.node();
  const std::size_t ac = av.cols();
  return Var::make_op(std::move(out), {a, b}, [pa, pb, ac](Node& self) {
    const Tensor& g = self.grad;
    if (pa->requires_grad) {
      Tensor& ga = pa->ensure_grad();
      for (std::size_t r = 0; r < ga.rows(); ++r) {
        for (std::size_t c = 0; c < ga.cols(); ++c) {
          ga.at(r, c) += g.at(r, c);
        }
      }
    }
    if (pb->requires_grad) {
      Tensor& gb = pb->ensure_grad();
      for (std::size_t r = 0; r < gb.rows(); ++r) {
        for (std::size_t c = 0; c < gb.cols(); ++c) {
          gb.at(r, c) += g.at(r, ac + c);
        }
      }
    }
  });
}

Var concat_rows(const std::vector<Var>& parts) {
  require(!parts.empty(), "concat_rows: no parts");
  const std::size_t cols = parts.front().cols();
  std::size_t rows = 0;
  for (const auto& p : parts) {
    require(p.cols() == cols, "concat_rows: column count mismatch");
    rows += p.rows();
  }
  Tensor out(rows, cols);
  std::size_t r0 = 0;
  std::vector<std::size_t> offsets;
  offsets.reserve(parts.size());
  for (const auto& p : parts) {
    offsets.push_back(r0);
    const Tensor& v = p.value();
    for (std::size_t r = 0; r < v.rows(); ++r) {
      for (std::size_t c = 0; c < cols; ++c) out.at(r0 + r, c) = v.at(r, c);
    }
    r0 += v.rows();
  }
  if (!grad_enabled()) return Var(std::move(out));
  std::vector<std::shared_ptr<Node>> pnodes;
  pnodes.reserve(parts.size());
  for (const auto& p : parts) pnodes.push_back(p.node());
  return Var::make_op(
      std::move(out), parts,
      [pnodes = std::move(pnodes), offsets = std::move(offsets)](Node& self) {
        for (std::size_t k = 0; k < pnodes.size(); ++k) {
          auto& p = pnodes[k];
          if (!p->requires_grad) continue;
          Tensor& g = p->ensure_grad();
          for (std::size_t r = 0; r < g.rows(); ++r) {
            for (std::size_t c = 0; c < g.cols(); ++c) {
              g.at(r, c) += self.grad.at(offsets[k] + r, c);
            }
          }
        }
      });
}

Var slice_rows(const Var& a, std::size_t begin, std::size_t count) {
  require(begin + count <= a.rows(), "slice_rows: out of range");
  const Tensor& x = a.value();
  Tensor out(count, x.cols());
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out.at(r, c) = x.at(begin + r, c);
    }
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa, begin](Node& self) {
    if (!pa->requires_grad) return;
    Tensor& g = pa->ensure_grad();
    for (std::size_t r = 0; r < self.grad.rows(); ++r) {
      for (std::size_t c = 0; c < self.grad.cols(); ++c) {
        g.at(begin + r, c) += self.grad.at(r, c);
      }
    }
  });
}

Var gather_rows(const Var& a, const std::vector<std::size_t>& indices) {
  const Tensor& x = a.value();
  for (std::size_t i : indices) {
    require(i < x.rows(), "gather_rows: index out of range");
  }
  Tensor out(indices.size(), x.cols());
  for (std::size_t r = 0; r < indices.size(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out.at(r, c) = x.at(indices[r], c);
    }
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa, indices](Node& self) {
    if (!pa->requires_grad) return;
    Tensor& g = pa->ensure_grad();
    for (std::size_t r = 0; r < indices.size(); ++r) {
      for (std::size_t c = 0; c < g.cols(); ++c) {
        g.at(indices[r], c) += self.grad.at(r, c);
      }
    }
  });
}

Var softmax_row(const Var& a) {
  require(a.rows() == 1 && a.cols() >= 1, "softmax_row: expects 1 x N");
  const Tensor& x = a.value();
  Tensor out(1, x.cols());
  double mx = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) mx = std::max(mx, x[i]);
  double z = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::exp(x[i] - mx);
    z += out[i];
  }
  for (std::size_t i = 0; i < x.size(); ++i) out[i] /= z;
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa](Node& self) {
    if (!pa->requires_grad) return;
    Tensor& g = pa->ensure_grad();
    const Tensor& y = self.value;
    double dot = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) dot += self.grad[i] * y[i];
    for (std::size_t i = 0; i < y.size(); ++i) {
      g[i] += y[i] * (self.grad[i] - dot);
    }
  });
}

Var log_softmax_row(const Var& a) {
  require(a.rows() == 1 && a.cols() >= 1, "log_softmax_row: expects 1 x N");
  const Tensor& x = a.value();
  Tensor out(1, x.cols());
  double mx = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) mx = std::max(mx, x[i]);
  double z = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) z += std::exp(x[i] - mx);
  const double logz = mx + std::log(z);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] - logz;
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa](Node& self) {
    if (!pa->requires_grad) return;
    Tensor& g = pa->ensure_grad();
    const Tensor& logp = self.value;
    double gsum = 0.0;
    for (std::size_t i = 0; i < logp.size(); ++i) gsum += self.grad[i];
    for (std::size_t i = 0; i < logp.size(); ++i) {
      g[i] += self.grad[i] - std::exp(logp[i]) * gsum;
    }
  });
}

Var reshape(const Var& a, std::size_t rows, std::size_t cols) {
  require(rows * cols == a.value().size(), "reshape: size mismatch");
  Tensor out(rows, cols);
  const Tensor& x = a.value();
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i];
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa](Node& self) {
    if (!pa->requires_grad) return;
    Tensor& g = pa->ensure_grad();
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += self.grad[i];
  });
}

Var pick(const Var& a, std::size_t r, std::size_t c) {
  require(r < a.rows() && c < a.cols(), "pick: index out of range");
  Tensor out(1, 1);
  out[0] = a.value().at(r, c);
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(std::move(out), {a}, [pa, r, c](Node& self) {
    if (!pa->requires_grad) return;
    pa->ensure_grad().at(r, c) += self.grad[0];
  });
}

Var mse(const Var& a, const Var& b) {
  require(a.value().same_shape(b.value()), "mse: shape mismatch");
  return mean_all(square(sub(a, b)));
}

Var entropy_row(const Var& p, double eps) {
  require(p.rows() == 1, "entropy_row: expects 1 x N");
  return neg(sum_all(mul(p, log_op(p, eps))));
}

namespace {

void require_offsets(const std::vector<std::size_t>& offsets,
                     std::size_t rows, const char* op) {
  require(offsets.size() >= 2 && offsets.front() == 0 &&
              offsets.back() == rows,
          "segment op: offsets must start at 0 and end at a.rows()");
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    if (offsets[s] >= offsets[s + 1]) {
      throw std::invalid_argument(std::string(op) + ": empty segment");
    }
  }
}

}  // namespace

Var segment_mean_rows(const Var& a,
                      const std::vector<std::size_t>& offsets) {
  require_offsets(offsets, a.rows(), "segment_mean_rows");
  const std::size_t segs = offsets.size() - 1;
  const Tensor& x = a.value();
  Tensor out(segs, x.cols());
  std::vector<double> inv(segs);
  for (std::size_t s = 0; s < segs; ++s) {
    inv[s] = 1.0 / static_cast<double>(offsets[s + 1] - offsets[s]);
    // Sum first, multiply after — mean_rows is scale(sum_rows, 1/n).
    for (std::size_t r = offsets[s]; r < offsets[s + 1]; ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        out.at(s, c) += x.at(r, c);
      }
    }
    for (std::size_t c = 0; c < x.cols(); ++c) out.at(s, c) *= inv[s];
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(
      std::move(out), {a},
      [pa, offsets, inv = std::move(inv)](Node& self) {
        if (!pa->requires_grad) return;
        Tensor& g = pa->ensure_grad();
        for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
          for (std::size_t r = offsets[s]; r < offsets[s + 1]; ++r) {
            for (std::size_t c = 0; c < g.cols(); ++c) {
              g.at(r, c) += self.grad.at(s, c) * inv[s];
            }
          }
        }
      });
}

Var segment_max_rows(const Var& a,
                     const std::vector<std::size_t>& offsets) {
  require_offsets(offsets, a.rows(), "segment_max_rows");
  const std::size_t segs = offsets.size() - 1;
  const Tensor& x = a.value();
  Tensor out(segs, x.cols());
  std::vector<std::size_t> argmax(segs * x.cols(), 0);
  for (std::size_t s = 0; s < segs; ++s) {
    // max_rows' scan: start from the segment's first row, strict >.
    for (std::size_t c = 0; c < x.cols(); ++c) {
      double best = x.at(offsets[s], c);
      std::size_t arg = offsets[s];
      for (std::size_t r = offsets[s] + 1; r < offsets[s + 1]; ++r) {
        if (x.at(r, c) > best) {
          best = x.at(r, c);
          arg = r;
        }
      }
      out.at(s, c) = best;
      argmax[s * x.cols() + c] = arg;
    }
  }
  if (!grad_enabled()) return Var(std::move(out));
  auto pa = a.node();
  return Var::make_op(
      std::move(out), {a},
      [pa, segs, argmax = std::move(argmax)](Node& self) {
        if (!pa->requires_grad) return;
        Tensor& g = pa->ensure_grad();
        for (std::size_t s = 0; s < segs; ++s) {
          for (std::size_t c = 0; c < g.cols(); ++c) {
            g.at(argmax[s * g.cols() + c], c) += self.grad.at(s, c);
          }
        }
      });
}

}  // namespace readys::tensor
