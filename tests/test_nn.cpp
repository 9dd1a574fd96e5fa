#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "tensor/ops.hpp"

namespace rn = readys::nn;
namespace rt = readys::tensor;
using readys::util::Rng;

namespace {

using Edges = std::vector<std::pair<std::size_t, std::size_t>>;

rt::SparseAdj csr_adjacency(std::size_t n, const Edges& edges) {
  rt::SparseAdj a;
  rn::normalized_adjacency_csr(n, edges, a);
  return a;
}

/// GCNLayer::forward recomputed as a dense product with the reference
/// builder's Â.
rt::Var dense_reference_forward(const rn::GCNLayer& layer, std::size_t n,
                                const Edges& edges, const rt::Var& h) {
  const auto params = layer.named_parameters();
  EXPECT_EQ(params[0].first, "weight");
  EXPECT_EQ(params[1].first, "bias");
  return rt::add(rt::matmul(rt::Var(rn::normalized_adjacency(n, edges)),
                            rt::matmul(h, params[0].second)),
                 params[1].second);
}

void expect_bit_identical(const rt::Tensor& a, const rt::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

}  // namespace

TEST(Linear, ShapesAndBias) {
  Rng rng(1);
  rn::Linear layer(3, 2, rng);
  rt::Var x(rt::Tensor::randn(5, 3, rng));
  auto y = layer.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  rn::Linear layer(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
  rt::Var zero(rt::Tensor::zeros(1, 3));
  auto y = layer.forward(zero);
  EXPECT_DOUBLE_EQ(y.value().abs_max(), 0.0);
}

TEST(Linear, ParameterRegistration) {
  Rng rng(3);
  rn::Linear layer(4, 4, rng);
  auto named = layer.named_parameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
  EXPECT_EQ(layer.parameter_count(), 4u * 4u + 4u);
}

TEST(Module, ZeroGradClearsGradients) {
  Rng rng(4);
  rn::Linear layer(2, 2, rng);
  rt::Var x(rt::Tensor::randn(1, 2, rng));
  rt::sum_all(layer.forward(x)).backward();
  bool any_nonzero = false;
  for (auto& p : layer.parameters()) {
    any_nonzero = any_nonzero || p.grad().abs_max() > 0.0;
  }
  EXPECT_TRUE(any_nonzero);
  layer.zero_grad();
  for (auto& p : layer.parameters()) {
    EXPECT_DOUBLE_EQ(p.grad().abs_max(), 0.0);
  }
}

TEST(Module, CopyParametersFrom) {
  Rng rng1(5);
  Rng rng2(6);
  rn::Linear a(3, 3, rng1);
  rn::Linear b(3, 3, rng2);
  b.copy_parameters_from(a);
  auto pa = a.parameters();
  auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].value() == pb[i].value());
  }
}

TEST(Module, CopyParametersShapeMismatchThrows) {
  Rng rng(7);
  rn::Linear a(3, 3, rng);
  rn::Linear b(3, 4, rng);
  EXPECT_THROW(b.copy_parameters_from(a), std::invalid_argument);
}

TEST(Mlp, ForwardShapeAndDepth) {
  Rng rng(8);
  rn::Mlp mlp({6, 8, 8, 1}, rng);
  rt::Var x(rt::Tensor::randn(3, 6, rng));
  auto y = mlp.forward(x);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 1u);
  EXPECT_EQ(mlp.named_parameters().size(), 6u);  // 3 layers x (W, b)
}

TEST(Mlp, RejectsSingleSize) {
  Rng rng(9);
  EXPECT_THROW(rn::Mlp({4}, rng), std::invalid_argument);
}

TEST(NormalizedAdjacency, IsolatedNodesSelfLoopOnly) {
  auto a = rn::normalized_adjacency(3, {});
  // With only self loops, Ahat is the identity.
  EXPECT_TRUE(a == rt::Tensor::eye(3));
}

TEST(NormalizedAdjacency, SymmetricAndRowNormalized) {
  auto a = rn::normalized_adjacency(3, {{0, 1}, {1, 2}});
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(a.at(i, j), a.at(j, i), 1e-12);
    }
  }
  // Known value: deg(0)=2, deg(1)=3 -> entry (0,1) = 1/sqrt(6).
  EXPECT_NEAR(a.at(0, 1), 1.0 / std::sqrt(6.0), 1e-12);
}

TEST(GcnLayer, PropagatesNeighborInformation) {
  Rng rng(10);
  rn::GCNLayer layer(2, 2, rng);
  // Two nodes connected vs not: outputs of node 0 must differ when node 1
  // changes iff they are connected.
  rt::Tensor feats = rt::Tensor::from_rows({{1.0, 0.0}, {0.0, 1.0}});
  rt::Tensor feats2 = rt::Tensor::from_rows({{1.0, 0.0}, {5.0, -3.0}});
  const Edges connected = {{0, 1}};
  const Edges isolated;

  const auto run = [&](const Edges& edges, const rt::Tensor& f) {
    const rt::Tensor out =
        layer.forward(csr_adjacency(2, edges), rt::Var(f)).value();
    expect_bit_identical(
        out, dense_reference_forward(layer, 2, edges, rt::Var(f)).value());
    return out;
  };
  EXPECT_GT(std::abs(run(connected, feats).at(0, 0) -
                     run(connected, feats2).at(0, 0)),
            1e-9);
  EXPECT_NEAR(run(isolated, feats).at(0, 0), run(isolated, feats2).at(0, 0),
              1e-12);
}

TEST(GcnLayer, GradientsFlowToWeights) {
  Rng rng(11);
  rn::GCNLayer layer(3, 4, rng);
  rt::Var h(rt::Tensor::randn(5, 3, rng));
  const Edges edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  rt::sum_all(rt::square(layer.forward(csr_adjacency(5, edges), h)))
      .backward();
  std::vector<rt::Tensor> grads;
  for (auto& p : layer.parameters()) {
    EXPECT_GT(p.grad().abs_max(), 0.0);
    grads.push_back(p.grad());
    p.zero_grad();
  }
  // The dense reference product yields the same gradients bit for bit.
  rt::sum_all(rt::square(dense_reference_forward(layer, 5, edges, h)))
      .backward();
  const auto params = layer.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_bit_identical(params[i].grad(), grads[i]);
  }
}

// --- spmm -----------------------------------------------------------------

TEST(Spmm, MatchesDenseMatmulBitForBit) {
  // Node 5 is isolated: its row and column hold only the self loop.
  const std::size_t n = 6;
  const Edges edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}};
  Rng rng(13);
  const rt::Tensor h0 = rt::Tensor::randn(n, 4, rng);
  const rt::Var g(rt::Tensor::randn(n, 4, rng));
  rt::Var h_sparse(h0, true);
  rt::Var h_dense(h0, true);
  const rt::Var y_sparse = rt::spmm(csr_adjacency(n, edges), h_sparse);
  const rt::Var y_dense =
      rt::matmul(rt::Var(rn::normalized_adjacency(n, edges)), h_dense);
  expect_bit_identical(y_sparse.value(), y_dense.value());
  rt::sum_all(rt::mul(y_sparse, g)).backward();
  rt::sum_all(rt::mul(y_dense, g)).backward();
  expect_bit_identical(h_sparse.grad(), h_dense.grad());
}

TEST(Spmm, BlockDiagonalPackMatchesBlocksOneAtATime) {
  // A path, a lone node, and a star with an isolated node.
  const std::vector<std::pair<std::size_t, Edges>> graphs = {
      {3, {{0, 1}, {1, 2}}}, {1, {}}, {4, {{0, 3}, {1, 3}}}};
  rt::SparseAdj packed;
  std::size_t total = 0;
  for (const auto& [n, edges] : graphs) {
    packed.append_block(csr_adjacency(n, edges));
    total += n;
  }
  ASSERT_EQ(packed.rows(), total);
  Rng rng(14);
  const rt::Var h0(rt::Tensor::randn(total, 3, rng));
  const rt::Var g(rt::Tensor::randn(total, 3, rng));
  rt::Var h(h0.value(), true);
  const rt::Var y = rt::spmm(packed, h);
  rt::sum_all(rt::mul(y, g)).backward();

  std::size_t r0 = 0;
  for (const auto& [n, edges] : graphs) {
    rt::Var hb(rt::slice_rows(h0, r0, n).value(), true);
    const rt::Var yb = rt::spmm(csr_adjacency(n, edges), hb);
    rt::sum_all(rt::mul(yb, rt::slice_rows(g, r0, n))).backward();
    expect_bit_identical(rt::slice_rows(y, r0, n).value(), yb.value());
    expect_bit_identical(
        rt::slice_rows(rt::Var(h.grad()), r0, n).value(), hb.grad());
    r0 += n;
  }
}

TEST(Spmm, RejectsRowCountMismatch) {
  EXPECT_THROW(rt::spmm(csr_adjacency(3, {}), rt::Var(rt::Tensor(4, 2))),
               std::invalid_argument);
}

TEST(Glorot, BoundsRespected) {
  Rng rng(12);
  auto w = rn::glorot_uniform(10, 10, rng);
  const double limit = std::sqrt(6.0 / 20.0);
  EXPECT_LE(w.abs_max(), limit);
  EXPECT_GT(w.norm(), 0.0);
}
