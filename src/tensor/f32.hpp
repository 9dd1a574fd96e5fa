#pragma once

#include <cstddef>

namespace readys::tensor::f32 {

/// Single-precision kernels for the inference-only fast path
/// (rl::InferenceBackend "f32simd"). The training stack stays on the
/// double-precision autograd tensors; these free functions cover exactly
/// the forward ops PolicyNet needs — GEMM with bias, ReLU, column
/// mean/max pooling — over raw row-major float buffers (typically
/// arena-allocated, see tensor/arena.hpp).
///
/// Numerical contract: every output element c[i][j] is accumulated over
/// the inner dimension in ascending order in both the scalar and the
/// AVX2 kernel, so the two differ only by FMA contraction (no
/// reassociation). Agreement with the f64 reference path is pinned by
/// tolerance tests, not bit-exactness.

/// Instruction set the GEMM dispatches to.
enum class Isa { kScalar, kAvx2 };

/// "scalar" / "avx2" — for bench manifests and log lines.
const char* isa_name(Isa isa) noexcept;

/// True when the AVX2 kernels were compiled in (x86-64 build without
/// -DREADYS_NO_AVX2).
bool avx2_compiled() noexcept;

/// True when avx2_compiled() and the host CPU reports AVX2 support
/// (cpuid via __builtin_cpu_supports) — the runtime dispatch gate, so a
/// binary carrying AVX2 code never executes it on an older machine.
bool avx2_available() noexcept;

/// What the kernels below will actually execute right now.
Isa active_isa() noexcept;

/// Test hook: force the scalar kernels even when AVX2 is available.
/// Thread-safe (atomic flag); affects the whole process.
void force_scalar(bool on) noexcept;

/// c (m x n) = a (m x k) * b (k x n) + bias, with `bias` a 1 x n row
/// broadcast over every output row (nullptr = zero). `c` must not alias
/// `a` or `b`. Zero entries of `a` are skipped, so multiplying by a
/// sparse normalized adjacency costs O(nnz * n).
void matmul_bias(const float* a, std::size_t m, std::size_t k,
                 const float* b, std::size_t n, const float* bias,
                 float* c) noexcept;

/// c (m x n) = A * x + bias for a CSR sparse A (m x m): row i's nonzeros
/// are col/val[row_ptr[i] .. row_ptr[i+1]). Values arrive as double
/// (tensor::SparseAdj stores f64) and are rounded to float once
/// per nonzero; with ascending columns per row this accumulates each
/// output element in exactly the order matmul_bias would after skipping
/// the zero entries of the dense matrix — same result, O(nnz * n) work.
void spmm_bias(const std::size_t* row_ptr, const std::size_t* col,
               const double* val, std::size_t m, const float* x,
               std::size_t n, const float* bias, float* c) noexcept;

/// x[i] = max(x[i], 0) in place.
void relu_inplace(float* x, std::size_t n) noexcept;

/// out (1 x n) = per-column mean of x (m x n); m >= 1.
void mean_cols(const float* x, std::size_t m, std::size_t n,
               float* out) noexcept;

/// out (1 x n) = per-column max of x (m x n); m >= 1.
void max_cols(const float* x, std::size_t m, std::size_t n,
              float* out) noexcept;

/// dot(a, b) over n floats, ascending accumulation (the 1-wide head
/// projections: actor score per ready row, idle score, value).
float dot(const float* a, const float* b, std::size_t n) noexcept;

}  // namespace readys::tensor::f32
