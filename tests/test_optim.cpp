#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/linear.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"

namespace rn = readys::nn;
namespace rt = readys::tensor;
using readys::util::Rng;

namespace {

/// Minimizes f(w) = ||w - target||^2 with the given optimizer factory and
/// returns the final distance to the optimum.
template <typename MakeOpt>
double optimize_quadratic(MakeOpt make_opt, int steps) {
  rt::Var w(rt::Tensor(1, 4, 0.0), true);
  rt::Var target(rt::Tensor::from_rows({{1.0, -2.0, 3.0, 0.5}}));
  auto opt = make_opt(std::vector<rt::Var>{w});
  for (int i = 0; i < steps; ++i) {
    opt->zero_grad();
    rt::mse(w, target).backward();
    opt->step();
  }
  double dist = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    dist += std::pow(w.value()[i] - target.value()[i], 2.0);
  }
  return std::sqrt(dist);
}

}  // namespace

TEST(Adam, ConvergesOnQuadratic) {
  const double dist = optimize_quadratic(
      [](std::vector<rt::Var> p) {
        return std::make_unique<rn::Adam>(std::move(p), 0.1);
      },
      400);
  EXPECT_LT(dist, 1e-4);
}

TEST(Adam, FirstStepHasLearningRateMagnitude) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  rt::Var w(rt::Tensor(1, 1, 0.0), true);
  rn::Adam opt({w}, 0.01);
  rt::scale(w, 5.0).backward();
  opt.step();
  EXPECT_NEAR(w.value()[0], -0.01, 1e-6);
}

TEST(Optimizer, ClipGradNorm) {
  rt::Var w(rt::Tensor(1, 2, 0.0), true);
  rn::Adam opt({w}, 0.1);
  // Force a known gradient of norm 5.
  rt::Var loss = rt::sum_all(
      rt::mul(w, rt::Var(rt::Tensor::from_rows({{3.0, 4.0}}))));
  loss.backward();
  const double norm = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(norm, 5.0, 1e-12);
  EXPECT_NEAR(w.grad().norm(), 1.0, 1e-12);
  // Clipping below the threshold is a no-op.
  const double norm2 = opt.clip_grad_norm(10.0);
  EXPECT_NEAR(norm2, 1.0, 1e-12);
  EXPECT_NEAR(w.grad().norm(), 1.0, 1e-12);
}

TEST(Optimizer, GradsFiniteDetectsPoisonedGradients) {
  // The divergence guard in the trainers keys off these two signals:
  // grads_finite() and a non-finite clip_grad_norm() return.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  rt::Var w(rt::Tensor(1, 2, 1.0), true);
  rn::Adam opt({w}, 0.1);

  rt::sum_all(w).backward();
  EXPECT_TRUE(opt.grads_finite());
  EXPECT_TRUE(std::isfinite(opt.clip_grad_norm(1.0)));

  opt.zero_grad();
  rt::sum_all(rt::mul(w, rt::Var(rt::Tensor::from_rows({{inf, 1.0}}))))
      .backward();
  EXPECT_FALSE(opt.grads_finite());
  EXPECT_FALSE(std::isfinite(opt.clip_grad_norm(1.0)));

  opt.zero_grad();
  rt::sum_all(rt::mul(w, rt::Var(rt::Tensor::from_rows({{nan, 1.0}}))))
      .backward();
  EXPECT_FALSE(opt.grads_finite());
  EXPECT_FALSE(std::isfinite(opt.clip_grad_norm(1.0)));

  // Dropping the poisoned batch restores health.
  opt.zero_grad();
  EXPECT_TRUE(opt.grads_finite());
}

namespace {

/// Runs `steps` quadratic-descent updates on `opt` whose single parameter
/// is `w`, mirroring optimize_quadratic but against a caller-owned Var so
/// two optimizers can be compared parameter-by-parameter.
void descend(rt::Var& w, rn::Optimizer& opt, int steps) {
  rt::Var target(rt::Tensor::from_rows({{1.0, -2.0, 3.0, 0.5}}));
  for (int i = 0; i < steps; ++i) {
    opt.zero_grad();
    rt::mse(w, target).backward();
    opt.step();
  }
}

}  // namespace

TEST(Adam, StateRowsRoundTripResumesExactTrajectory) {
  // Twin setup: optimizer A runs 10 steps; optimizer B starts fresh on a
  // copy of A's weights and loads A's rows. Both must then produce
  // bit-identical weights for every subsequent step — the checkpoint
  // resume invariant.
  rt::Var wa(rt::Tensor(1, 4, 0.0), true);
  rn::Adam a({wa}, 0.05);
  descend(wa, a, 10);

  rt::Var wb(rt::Tensor(wa.value()), true);
  rn::Adam b({wb}, 0.05);
  b.load_state_rows(a.state_rows());

  descend(wa, a, 25);
  descend(wb, b, 25);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wa.value()[i], wb.value()[i]) << "index " << i;
  }
}

TEST(Adam, FreshResumeWithoutStateDiverges) {
  // Control for the round-trip test: skipping load_state_rows loses the
  // bias-correction step count and the moments, so trajectories differ.
  rt::Var wa(rt::Tensor(1, 4, 0.0), true);
  rn::Adam a({wa}, 0.05);
  descend(wa, a, 10);

  rt::Var wb(rt::Tensor(wa.value()), true);
  rn::Adam b({wb}, 0.05);  // no state loaded

  descend(wa, a, 5);
  descend(wb, b, 5);
  bool any_diff = false;
  for (std::size_t i = 0; i < 4; ++i) {
    if (wa.value()[i] != wb.value()[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Optimizer, LoadStateRowsRejectsMalformedRowsWithoutApplying) {
  rt::Var w(rt::Tensor(1, 4, 0.0), true);
  rn::Adam opt({w}, 0.05);
  descend(w, opt, 5);
  const auto good = opt.state_rows();

  // Each corruption must throw and leave the live state untouched, which
  // we verify by checking state_rows() still matches the pre-load rows.
  std::vector<std::vector<std::string>> bad_cases;
  bad_cases.push_back({});                       // empty
  bad_cases.push_back({"sgd 0"});                // wrong optimizer tag
  auto truncated = good;
  truncated.pop_back();                          // missing tensor row
  bad_cases.push_back(truncated);
  auto garbled = good;
  garbled.back() += " 1.0";                      // trailing extra value
  bad_cases.push_back(garbled);

  for (const auto& rows : bad_cases) {
    EXPECT_THROW(opt.load_state_rows(rows), std::runtime_error);
    EXPECT_EQ(opt.state_rows(), good);
  }
}

TEST(Training, LinearLayerFitsLinearMap) {
  // End-to-end sanity: y = xA can be learned by a Linear layer.
  Rng rng(3);
  rn::Linear layer(2, 2, rng);
  rn::Adam opt(layer.parameters(), 0.05);
  const rt::Tensor a = rt::Tensor::from_rows({{2.0, -1.0}, {0.5, 3.0}});
  double last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    rt::Tensor xv = rt::Tensor::randn(8, 2, rng);
    rt::Var x(xv);
    rt::Var target(rt::matmul_value(xv, a));
    opt.zero_grad();
    rt::Var loss = rt::mse(layer.forward(x), target);
    loss.backward();
    opt.step();
    last_loss = loss.value().item();
  }
  EXPECT_LT(last_loss, 1e-3);
}
