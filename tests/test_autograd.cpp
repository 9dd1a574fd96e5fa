// Finite-difference verification of every differentiable op: the whole
// training pipeline rests on these gradients being exact.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace rt = readys::tensor;
using readys::util::Rng;

namespace {

/// Checks d(f)/d(leaf) against central finite differences for every
/// element of every leaf.
void grad_check(const std::function<rt::Var(std::vector<rt::Var>&)>& f,
                std::vector<rt::Var> leaves, double eps = 1e-6,
                double tol = 1e-5) {
  rt::Var out = f(leaves);
  ASSERT_EQ(out.value().size(), 1u) << "grad_check target must be scalar";
  out.backward();
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const rt::Tensor analytic = leaves[l].grad();
    for (std::size_t i = 0; i < analytic.size(); ++i) {
      const double saved = leaves[l].mutable_value()[i];
      leaves[l].mutable_value()[i] = saved + eps;
      const double fp = f(leaves).value().item();
      leaves[l].mutable_value()[i] = saved - eps;
      const double fm = f(leaves).value().item();
      leaves[l].mutable_value()[i] = saved;
      const double numeric = (fp - fm) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], numeric,
                  tol * std::max(1.0, std::abs(numeric)))
          << "leaf " << l << " element " << i;
    }
  }
}

rt::Var leaf(std::size_t r, std::size_t c, Rng& rng) {
  return rt::Var(rt::Tensor::randn(r, c, rng, 0.5), /*requires_grad=*/true);
}

}  // namespace

TEST(Autograd, BackwardRequiresScalar) {
  rt::Var v(rt::Tensor(2, 2, 1.0), true);
  EXPECT_THROW(v.backward(), std::logic_error);
}

TEST(Autograd, LeafGradientOfIdentityChain) {
  rt::Var x(rt::Tensor(1, 1, 3.0), true);
  rt::Var y = rt::scale(rt::add_scalar(x, 2.0), 4.0);  // y = 4(x+2)
  y.backward();
  EXPECT_DOUBLE_EQ(y.value().item(), 20.0);
  EXPECT_DOUBLE_EQ(x.grad()[0], 4.0);
}

TEST(Autograd, GradAccumulatesAcrossBackwardCalls) {
  rt::Var x(rt::Tensor(1, 1, 1.0), true);
  rt::Var y = rt::scale(x, 3.0);
  y.backward();
  y.backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 6.0);
  x.zero_grad();
  EXPECT_DOUBLE_EQ(x.grad()[0], 0.0);
}

TEST(Autograd, DiamondGraphSumsPaths) {
  // f = x*x + x*x reaches x through two paths.
  rt::Var x(rt::Tensor(1, 1, 5.0), true);
  rt::Var sq = rt::square(x);
  rt::Var f = rt::add(sq, sq);
  f.backward();
  EXPECT_DOUBLE_EQ(f.value().item(), 50.0);
  EXPECT_DOUBLE_EQ(x.grad()[0], 20.0);
}

TEST(Autograd, NoGradLeavesStayUntouched) {
  rt::Var x(rt::Tensor(1, 1, 2.0), false);
  rt::Var y(rt::Tensor(1, 1, 3.0), true);
  rt::Var f = rt::mul(x, y);
  f.backward();
  EXPECT_DOUBLE_EQ(y.grad()[0], 2.0);
  EXPECT_DOUBLE_EQ(x.grad().abs_max(), 0.0);
}

TEST(GradCheck, Matmul) {
  Rng rng(1);
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::matmul(v[0], v[1]));
      },
      {leaf(3, 4, rng), leaf(4, 2, rng)});
}

TEST(GradCheck, Spmm) {
  // A non-symmetric CSR, so a backward that forgot the transpose fails.
  rt::SparseAdj a;
  a.row_ptr = {0, 2, 3, 6};
  a.col = {0, 2, 1, 0, 1, 2};
  a.val = {0.5, -1.2, 2.0, 0.3, 0.7, -0.4};
  Rng rng(13);
  grad_check(
      [&a](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::spmm(a, v[0])));
      },
      {leaf(3, 2, rng)});
}

TEST(GradCheck, AddSameShapeAndBroadcasts) {
  Rng rng(2);
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::add(v[0], v[1])));
      },
      {leaf(3, 3, rng), leaf(3, 3, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::add(v[0], v[1])));
      },
      {leaf(3, 3, rng), leaf(1, 3, rng)});  // row broadcast
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::add(v[0], v[1])));
      },
      {leaf(3, 3, rng), leaf(1, 1, rng)});  // scalar broadcast
}

TEST(GradCheck, SubAndMul) {
  Rng rng(3);
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::mul(rt::sub(v[0], v[1]), v[0]));
      },
      {leaf(2, 4, rng), leaf(2, 4, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::mul(v[0], v[1]));
      },
      {leaf(2, 4, rng), leaf(1, 1, rng)});  // scalar broadcast mul
}

TEST(GradCheck, Nonlinearities) {
  Rng rng(4);
  for (auto op : {&rt::tanh_op, &rt::sigmoid, &rt::exp_op}) {
    grad_check(
        [op](std::vector<rt::Var>& v) { return rt::sum_all(op(v[0])); },
        {leaf(3, 3, rng)});
  }
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::leaky_relu(v[0], 0.1));
      },
      {leaf(3, 3, rng)});
}

TEST(GradCheck, LogOfPositive) {
  Rng rng(5);
  rt::Var x(rt::Tensor::rand_uniform(2, 3, rng, 0.5, 2.0), true);
  grad_check(
      [](std::vector<rt::Var>& v) { return rt::sum_all(rt::log_op(v[0])); },
      {x});
}

TEST(GradCheck, Reductions) {
  Rng rng(6);
  grad_check(
      [](std::vector<rt::Var>& v) { return rt::mean_all(rt::square(v[0])); },
      {leaf(4, 3, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::mean_rows(v[0])));
      },
      {leaf(4, 3, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::sum_rows(v[0])));
      },
      {leaf(4, 3, rng)});
}

TEST(GradCheck, MaxRows) {
  // Keep entries well separated so the finite-difference step cannot
  // change the argmax.
  rt::Var x(rt::Tensor::from_rows({{1.0, 8.0}, {5.0, 2.0}, {3.0, 4.0}}),
            true);
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::max_rows(v[0])));
      },
      {x});
}

TEST(GradCheck, ConcatAndSlice) {
  Rng rng(7);
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::concat_cols(v[0], v[1])));
      },
      {leaf(3, 2, rng), leaf(3, 4, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(
            rt::square(rt::concat_rows({v[0], v[1], v[0]})));
      },
      {leaf(2, 3, rng), leaf(1, 3, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::slice_rows(v[0], 1, 2)));
      },
      {leaf(4, 3, rng)});
}

TEST(GradCheck, GatherRowsWithDuplicates) {
  Rng rng(8);
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::gather_rows(v[0], {2, 0, 2})));
      },
      {leaf(3, 3, rng)});
}

TEST(GradCheck, Reshape) {
  Rng rng(9);
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::reshape(v[0], 1, 6)));
      },
      {leaf(3, 2, rng)});
}

TEST(GradCheck, SoftmaxAndLogSoftmax) {
  Rng rng(10);
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::softmax_row(v[0])));
      },
      {leaf(1, 5, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::sum_all(rt::square(rt::log_softmax_row(v[0])));
      },
      {leaf(1, 5, rng)});
}

TEST(GradCheck, PickMseEntropy) {
  Rng rng(11);
  grad_check(
      [](std::vector<rt::Var>& v) { return rt::pick(rt::square(v[0]), 1, 2); },
      {leaf(2, 3, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) { return rt::mse(v[0], v[1]); },
      {leaf(3, 3, rng), leaf(3, 3, rng)});
  grad_check(
      [](std::vector<rt::Var>& v) {
        return rt::entropy_row(rt::softmax_row(v[0]));
      },
      {leaf(1, 4, rng)});
}

TEST(Softmax, SumsToOneAndIsStable) {
  rt::Var logits(rt::Tensor::from_rows({{1000.0, 1000.0, 999.0}}));
  auto p = rt::softmax_row(logits).value();
  EXPECT_NEAR(p.sum(), 1.0, 1e-12);
  EXPECT_GT(p[0], p[2]);
  EXPECT_NEAR(p[0], p[1], 1e-12);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  Rng rng(12);
  rt::Var logits(rt::Tensor::randn(1, 6, rng));
  auto p = rt::softmax_row(logits).value();
  auto lp = rt::log_softmax_row(logits).value();
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-10);
  }
}

TEST(GradCheck, ComposedNetworkLikeExpression) {
  // A miniature actor-critic style expression touching most ops at once.
  Rng rng(13);
  grad_check(
      [](std::vector<rt::Var>& v) {
        rt::Var h = rt::relu(rt::matmul(v[0], v[1]));
        rt::Var pooled = rt::mean_rows(h);
        rt::Var scores = rt::reshape(rt::matmul(h, v[2]), 1, 4);
        rt::Var logp = rt::log_softmax_row(scores);
        return rt::add(rt::pick(logp, 0, 1),
                       rt::mean_all(rt::square(pooled)));
      },
      {leaf(4, 3, rng), leaf(3, 5, rng), leaf(5, 1, rng)}, 1e-6, 1e-4);
}
