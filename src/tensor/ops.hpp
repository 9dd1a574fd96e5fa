#pragma once

#include <cstddef>
#include <vector>

#include "tensor/autograd.hpp"

namespace readys::tensor {

/// Differentiable operations over Var.
///
/// All ops build the reverse-mode graph on the fly. Shapes are validated
/// eagerly and violations throw std::invalid_argument.

/// Matrix product: (R x K) * (K x C) -> (R x C).
Var matmul(const Var& a, const Var& b);

/// Constant sparse product: (N x N CSR) * (N x C) -> (N x C). Forward
/// walks each row's nonzeros in ascending column order and backward
/// accumulates dH[k] += a_ik * G[i] in ascending i — the zero-skipping
/// loops of matmul, so the result and dH are bit-identical to
/// matmul(Var{dense a}, h). `a` gets no gradient; while gradients are
/// on the op keeps its own copy of `a` for backward.
Var spmm(const SparseAdj& a, const Var& h);

/// Elementwise sum. `b` may also be a 1 x C row (broadcast over rows of a)
/// or a 1 x 1 scalar (broadcast over everything).
Var add(const Var& a, const Var& b);

/// Elementwise difference with the same broadcast rules as add().
Var sub(const Var& a, const Var& b);

/// Hadamard product; `b` may be 1 x 1 (scalar broadcast).
Var mul(const Var& a, const Var& b);

/// Multiply by a compile-time-known constant.
Var scale(const Var& a, double s);

/// Add a constant to every entry.
Var add_scalar(const Var& a, double s);

Var neg(const Var& a);

/// Elementwise nonlinearities.
Var relu(const Var& a);
Var leaky_relu(const Var& a, double slope = 0.01);
Var tanh_op(const Var& a);
Var sigmoid(const Var& a);
Var exp_op(const Var& a);
/// Natural log of max(a, eps) for numerical safety.
Var log_op(const Var& a, double eps = 1e-12);
Var square(const Var& a);

/// Full reductions to a 1 x 1 scalar.
Var sum_all(const Var& a);
Var mean_all(const Var& a);

/// Column-wise reductions: (R x C) -> (1 x C).
Var mean_rows(const Var& a);
Var max_rows(const Var& a);
Var sum_rows(const Var& a);

/// Horizontal concatenation: (R x C1) ++ (R x C2) -> R x (C1+C2).
Var concat_cols(const Var& a, const Var& b);

/// Vertical stack of 1-or-more matrices with equal column counts.
Var concat_rows(const std::vector<Var>& parts);

/// Rows [begin, begin+count) of a.
Var slice_rows(const Var& a, std::size_t begin, std::size_t count);

/// Row gather: out.row(i) = a.row(indices[i]). Duplicate indices allowed
/// (gradients accumulate).
Var gather_rows(const Var& a, const std::vector<std::size_t>& indices);

/// Numerically-stable softmax over a 1 x N row.
Var softmax_row(const Var& a);

/// Numerically-stable log-softmax over a 1 x N row.
Var log_softmax_row(const Var& a);

/// Reinterprets the (row-major) data with a new shape of equal size.
Var reshape(const Var& a, std::size_t rows, std::size_t cols);

/// Entry (r, c) as a 1 x 1 scalar.
Var pick(const Var& a, std::size_t r, std::size_t c);

/// Mean squared error between same-shaped tensors -> 1 x 1.
Var mse(const Var& a, const Var& b);

/// Entropy of a probability row p (1 x N): -sum p*log(p). Gradient flows
/// into p.
Var entropy_row(const Var& p, double eps = 1e-12);

// --- segment ops (batched multi-graph forwards) -----------------------
//
// These two ops, with spmm over a block-diagonal CSR, are what lets N
// small graphs run through the network as one packed matrix: rows are
// grouped into consecutive segments (graph g owns rows [offsets[g],
// offsets[g+1]); offsets has N+1 entries starting at 0 and ending at the
// row count). Each op applies exactly the same arithmetic, in the same
// order, as its per-graph equivalent applied to the segment alone, so
// packed results are bit-identical to the per-graph loop.

/// Per-segment mean_rows: (R x C) -> (N x C), row g = mean over the rows
/// of segment g. Segments must be non-empty.
Var segment_mean_rows(const Var& a, const std::vector<std::size_t>& offsets);

/// Per-segment max_rows: (R x C) -> (N x C); gradients route to each
/// segment's per-column argmax row. Segments must be non-empty.
Var segment_max_rows(const Var& a, const std::vector<std::size_t>& offsets);

}  // namespace readys::tensor
