#pragma once

#include <utility>
#include <vector>

#include "nn/module.hpp"

namespace readys::nn {

/// One Kipf–Welling graph-convolution layer:
///   H' = Ahat * H * W + b
/// where Ahat = D^-1/2 (A + I) D^-1/2 is the renormalized adjacency.
/// The activation is applied by the caller (READYS uses ReLU between
/// layers, none after the last).
class GCNLayer : public Module {
 public:
  GCNLayer(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  /// `ahat` is the (N x N) normalized adjacency in CSR form; `h` is the
  /// (N x in) node feature matrix. A block-diagonal `ahat` runs several
  /// graphs at once, each graph's rows bit-identical to its own forward.
  Var forward(const tensor::SparseAdj& ahat, const Var& h) const;

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Var weight_;
  Var bias_;
};

/// Builds the renormalized adjacency Ahat = D^-1/2 (A + I) D^-1/2 from a
/// directed edge list over N nodes. Edges are treated as undirected for
/// message passing (information must flow both up and down the DAG so the
/// embedding of a ready task can see its descendants). Dense, O(N^2):
/// the reference the CSR builder and tensor::spmm are tested against.
Tensor normalized_adjacency(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges);

/// Fills `out` with the CSR form of normalized_adjacency(n, edges).
/// Every stored value is bit-identical to the corresponding dense entry
/// (both are the product dinv_sqrt[i] * dinv_sqrt[j] of exactly the same
/// doubles), and columns are ascending within each row, so a product
/// accumulated over the CSR nonzeros reproduces a dense product that
/// skips zeros term for term. Buffers are reused across calls.
void normalized_adjacency_csr(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    tensor::SparseAdj& out);

}  // namespace readys::nn
