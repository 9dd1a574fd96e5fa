// Cross-cutting property tests: invariances and dominance relations that
// must hold for any instance, exercised over randomized inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/readys.hpp"

namespace rc = readys::core;
namespace rd = readys::dag;
namespace rn = readys::nn;
namespace rs = readys::sim;
namespace rt = readys::tensor;
namespace ru = readys::util;

namespace {

/// Applies permutation p to a graph's node order (edges relabeled).
std::pair<rt::Tensor, std::vector<std::pair<std::size_t, std::size_t>>>
permuted_gcn_inputs(
    const rt::Tensor& features,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    const std::vector<std::size_t>& p) {
  const std::size_t n = features.rows();
  rt::Tensor pf(n, features.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < features.cols(); ++c) {
      pf.at(p[i], c) = features.at(i, c);
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> pe;
  pe.reserve(edges.size());
  for (auto [u, v] : edges) pe.emplace_back(p[u], p[v]);
  return {pf, pe};
}

/// One GCN layer over the CSR Â of (n, edges), checked bit for bit
/// against the same layer run on the dense reference Â.
rt::Tensor gcn_forward(
    const rn::GCNLayer& layer, const rt::Tensor& features,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  const std::size_t n = features.rows();
  rt::SparseAdj csr;
  rn::normalized_adjacency_csr(n, edges, csr);
  const rt::Tensor out = layer.forward(csr, rt::Var(features)).value();
  const auto params = layer.named_parameters();
  const rt::Tensor dense =
      rt::add(rt::matmul(rt::Var(rn::normalized_adjacency(n, edges)),
                         rt::matmul(rt::Var(features), params[0].second)),
              params[1].second)
          .value();
  EXPECT_TRUE(out == dense) << "CSR and dense Â products differ";
  return out;
}

}  // namespace

TEST(GcnProperty, PermutationEquivariance) {
  // Relabeling the nodes must permute the embeddings identically — the
  // core justification for using a GCN on scheduling windows.
  ru::Rng rng(3);
  const std::size_t n = 7;
  rn::GCNLayer layer(5, 6, rng);
  rt::Tensor features = rt::Tensor::randn(n, 5, rng);
  std::vector<std::pair<std::size_t, std::size_t>> edges = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {4, 6}};
  const rt::Tensor out = gcn_forward(layer, features, edges);

  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  rng.shuffle(p);
  const auto [pf, pe] = permuted_gcn_inputs(features, edges, p);
  const rt::Tensor pout = gcn_forward(layer, pf, pe);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      EXPECT_NEAR(pout.at(p[i], c), out.at(i, c), 1e-9);
    }
  }
}

TEST(HeftProperty, NeverWorseThanChainLowerBoundAndWithinWorkBound) {
  // HEFT's makespan must lie between the fastest-resource critical path
  // and the all-on-one-slowest-resource upper bound, for every app/size.
  for (auto app : {rc::App::kCholesky, rc::App::kLu, rc::App::kQr}) {
    for (int t : {2, 4, 6, 8}) {
      const auto g = rc::make_graph(app, t);
      const auto c = rc::make_costs(app);
      const auto p = rs::Platform::hybrid(2, 2);
      const double mk = readys::sched::heft_expected_makespan(g, p, c);
      double serial_cpu = 0.0;
      for (rd::TaskId i = 0; i < g.num_tasks(); ++i) {
        serial_cpu += c.expected(g.kernel(i), rs::ResourceType::kCpu);
      }
      EXPECT_GT(mk, 0.0);
      EXPECT_LE(mk, serial_cpu) << rc::app_name(app) << " T=" << t;
    }
  }
}

TEST(HeftProperty, MoreResourcesNeverHurtMuch) {
  // Adding a GPU to the platform should not increase HEFT's expected
  // makespan (HEFT is not optimal, so allow a tiny tolerance).
  for (auto app : {rc::App::kCholesky, rc::App::kLu, rc::App::kQr}) {
    const auto g = rc::make_graph(app, 6);
    const auto c = rc::make_costs(app);
    const double small = readys::sched::heft_expected_makespan(
        g, rs::Platform::hybrid(2, 1), c);
    const double big = readys::sched::heft_expected_makespan(
        g, rs::Platform::hybrid(2, 2), c);
    EXPECT_LE(big, small * 1.05) << rc::app_name(app);
  }
}

TEST(EngineProperty, ReadySetMatchesDependencyState) {
  // Drive a random execution; at every decision instant each ready task
  // must have all predecessors done and must not be running or done.
  ru::Rng rng(11);
  const auto g = rc::make_graph(rc::App::kLu, 4);
  const auto c = rc::make_costs(rc::App::kLu);
  const auto p = rs::Platform::hybrid(2, 1);
  rs::SimEngine e(g, p, c, 0.4, 9);
  while (!e.finished()) {
    for (rd::TaskId t : e.ready()) {
      EXPECT_FALSE(e.is_done(t));
      for (rd::TaskId q : g.predecessors(t)) {
        EXPECT_TRUE(e.is_done(q));
      }
      for (const auto& info : e.running()) EXPECT_NE(info.task, t);
    }
    // Start a random subset of (ready, idle) pairs, then advance.
    auto idle = e.idle_resources();
    while (!idle.empty() && !e.ready().empty() && rng.uniform() < 0.7) {
      const auto t = e.ready()[rng.uniform_index(e.ready().size())];
      const auto r = idle[rng.uniform_index(idle.size())];
      e.start(t, r);
      idle = e.idle_resources();
    }
    if (!e.advance()) {
      ASSERT_FALSE(e.ready().empty());
      e.start(e.ready().front(), e.idle_resources().front());
    }
  }
  EXPECT_EQ(e.trace().validate(g, p), "");
}

TEST(EngineProperty, MakespanEqualsLastTraceFinish) {
  const auto g = rc::make_graph(rc::App::kQr, 4);
  const auto c = rc::make_costs(rc::App::kQr);
  const auto p = rs::Platform::hybrid(1, 2);
  readys::sched::MctScheduler mct;
  rs::Simulator sim(g, p, c, {0.3, 5});
  const auto result = sim.run(mct);
  double last = 0.0;
  for (const auto& entry : result.trace.entries()) {
    last = std::max(last, entry.finish);
  }
  EXPECT_DOUBLE_EQ(result.makespan, last);
}

TEST(NoiseProperty, MeanScalesWithSigmaTruncation) {
  // E[max(0, N(E, sE))] >= E and increases with s (truncation at zero
  // moves mass upward).
  ru::Rng rng(7);
  auto mean_of = [&](double sigma) {
    rs::NoiseModel noise(sigma);
    double acc = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) acc += noise.sample(100.0, rng);
    return acc / n;
  };
  const double m0 = mean_of(0.0);
  const double m1 = mean_of(1.0);
  const double m2 = mean_of(2.0);
  EXPECT_DOUBLE_EQ(m0, 100.0);
  EXPECT_GT(m1, 100.0);
  EXPECT_GT(m2, m1);
}

TEST(FeatureProperty, DescendantProfileDropsAlongTopologicalOrder) {
  // Per type, the total descendant mass (summed over types) of a task is
  // strictly larger than that of any of its successors in a single-source
  // factorization DAG... not per-type, but the scalar total must shrink
  // by at least the successor's own split share. We check the weaker,
  // always-true property: every node's total mass is positive and the
  // source dominates everyone.
  for (auto app : {rc::App::kCholesky, rc::App::kLu, rc::App::kQr}) {
    const auto g = rc::make_graph(app, 5);
    rd::StaticFeatures f(g);
    const auto counts = g.kernel_counts();
    auto total = [&](rd::TaskId t) {
      double acc = 0.0;
      for (int k = 0; k < g.num_kernel_types(); ++k) {
        acc += f.descendant_mass(t, k) *
               static_cast<double>(counts[static_cast<std::size_t>(k)]);
      }
      return acc;
    };
    const auto src = g.sources().front();
    EXPECT_NEAR(total(src), static_cast<double>(g.num_tasks()), 1e-6);
    for (rd::TaskId t = 0; t < g.num_tasks(); ++t) {
      EXPECT_GT(total(t), 0.0);
      EXPECT_LE(total(t), total(src) + 1e-9);
    }
  }
}

TEST(SchedulerProperty2, HeftExpectedMakespanMonotoneInCosts) {
  // Doubling every kernel duration must exactly double HEFT's makespan
  // (the schedule is scale-invariant).
  const auto g = rc::make_graph(rc::App::kCholesky, 6);
  const auto p = rs::Platform::hybrid(2, 2);
  const auto c1 = rs::CostModel::cholesky();
  std::vector<std::vector<double>> doubled;
  for (int k = 0; k < c1.num_kernels(); ++k) {
    doubled.push_back({2.0 * c1.expected(k, rs::ResourceType::kCpu),
                       2.0 * c1.expected(k, rs::ResourceType::kGpu)});
  }
  const rs::CostModel c2("doubled", doubled);
  EXPECT_NEAR(readys::sched::heft_expected_makespan(g, p, c2),
              2.0 * readys::sched::heft_expected_makespan(g, p, c1), 1e-9);
}
