#include <gtest/gtest.h>

#include <cstdint>

#include "core/apps.hpp"
#include "dag/cholesky.hpp"
#include "dag/lu.hpp"
#include "dag/qr.hpp"
#include "dag/random_dag.hpp"
#include "dag/task_graph.hpp"

namespace rd = readys::dag;
namespace rc = readys::core;

TEST(TaskGraph, AddTaskAndEdgeBasics) {
  rd::TaskGraph g("g", {"A", "B"});
  auto t0 = g.add_task(0);
  auto t1 = g.add_task(1);
  g.add_edge(t0, t1);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(t0, t1));
  EXPECT_FALSE(g.has_edge(t1, t0));
  EXPECT_EQ(g.successors(t0).size(), 1u);
  EXPECT_EQ(g.predecessors(t1).size(), 1u);
}

TEST(TaskGraph, DuplicateEdgeIgnored) {
  rd::TaskGraph g("g", {"A"});
  auto t0 = g.add_task(0);
  auto t1 = g.add_task(0);
  g.add_edge(t0, t1);
  g.add_edge(t0, t1);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(TaskGraph, RejectsBadEdges) {
  rd::TaskGraph g("g", {"A"});
  auto t0 = g.add_task(0);
  auto t1 = g.add_task(0);
  EXPECT_THROW(g.add_edge(t0, t0), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_edge(t1, t0), std::invalid_argument);  // backward
  EXPECT_THROW(g.add_edge(t0, 99), std::out_of_range);
  EXPECT_THROW(g.add_task(7), std::invalid_argument);
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  rd::TaskGraph g("g", {"A"});
  for (int i = 0; i < 6; ++i) g.add_task(0);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 5);
  g.add_edge(4, 5);
  const auto order = g.topological_order();
  std::vector<std::size_t> pos(g.num_tasks());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (rd::TaskId t = 0; t < g.num_tasks(); ++t) {
    for (rd::TaskId s : g.successors(t)) EXPECT_LT(pos[t], pos[s]);
  }
  EXPECT_EQ(g.depth(), 3u);
  EXPECT_EQ(g.sources().size(), 2u);
  EXPECT_EQ(g.sinks().size(), 1u);
}

// --- paper anchors: Cholesky task counts quoted in §V-F ---

// CountCase has no printer, so gtest names each case after the raw bytes of
// its parameter. The four bytes after `tiles` used to be uninitialised padding,
// which made the case names change from build to build. They are now an explicit
// field holding the bytes the cases were first recorded under, so every byte is
// initialised and the names stay fixed.
struct CountCase {
  int tiles;
  std::uint32_t name_bytes;
  std::size_t tasks;
};
static_assert(sizeof(CountCase) == 16, "case names are the 16 parameter bytes");

class CholeskyCounts : public ::testing::TestWithParam<CountCase> {};

TEST_P(CholeskyCounts, MatchesPaperNumbers) {
  const CountCase c = GetParam();
  const auto g = rd::cholesky_graph(c.tiles);
  EXPECT_EQ(g.num_tasks(), c.tasks);
  EXPECT_EQ(g.num_tasks(),
            rc::expected_task_count(rc::App::kCholesky, c.tiles));
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, CholeskyCounts,
                         ::testing::Values(CountCase{4, 0, 20},
                                           CountCase{6, 0x00091E03u, 56},
                                           CountCase{8, 0xCAD00000u, 120},
                                           CountCase{10, 0, 220},
                                           CountCase{12, 0, 364}));

class GeneratorStructure
    : public ::testing::TestWithParam<std::tuple<rc::App, int>> {};

TEST_P(GeneratorStructure, WellFormedDag) {
  const auto [app, tiles] = GetParam();
  const auto g = rc::make_graph(app, tiles);
  EXPECT_EQ(g.num_tasks(), rc::expected_task_count(app, tiles));
  EXPECT_EQ(g.num_kernel_types(), 4);
  // Acyclic by construction; topological_order throws otherwise.
  EXPECT_EQ(g.topological_order().size(), g.num_tasks());
  // Factorizations have a single entry task and a single exit task.
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
  // The first panel kernel is the source.
  EXPECT_EQ(g.kernel(g.sources().front()), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndSizes, GeneratorStructure,
    ::testing::Combine(::testing::Values(rc::App::kCholesky, rc::App::kLu,
                                         rc::App::kQr),
                       ::testing::Values(2, 3, 4, 6, 8, 10)));

TEST(Cholesky, KernelCountsClosedForm) {
  for (int t : {2, 4, 6, 8}) {
    const auto g = rd::cholesky_graph(t);
    const auto counts = g.kernel_counts();
    const std::size_t n = static_cast<std::size_t>(t);
    EXPECT_EQ(counts[rd::kPotrf], n);
    EXPECT_EQ(counts[rd::kTrsm], n * (n - 1) / 2);
    EXPECT_EQ(counts[rd::kSyrk], n * (n - 1) / 2);
    EXPECT_EQ(counts[rd::kGemm], n * (n - 1) * (n - 2) / 6);
  }
}

TEST(Lu, KernelCountsClosedForm) {
  for (int t : {2, 4, 6}) {
    const auto g = rd::lu_graph(t);
    const auto counts = g.kernel_counts();
    const std::size_t n = static_cast<std::size_t>(t);
    EXPECT_EQ(counts[rd::kGetrf], n);
    EXPECT_EQ(counts[rd::kTrsmRow], n * (n - 1) / 2);
    EXPECT_EQ(counts[rd::kTrsmCol], n * (n - 1) / 2);
    EXPECT_EQ(counts[rd::kLuGemm], (n - 1) * n * (2 * n - 1) / 6);
  }
}

TEST(Qr, KernelCountsClosedForm) {
  for (int t : {2, 4, 6}) {
    const auto g = rd::qr_graph(t);
    const auto counts = g.kernel_counts();
    const std::size_t n = static_cast<std::size_t>(t);
    EXPECT_EQ(counts[rd::kGeqrt], n);
    EXPECT_EQ(counts[rd::kUnmqr], n * (n - 1) / 2);
    EXPECT_EQ(counts[rd::kTsqrt], n * (n - 1) / 2);
    EXPECT_EQ(counts[rd::kTsmqr], (n - 1) * n * (2 * n - 1) / 6);
  }
}

TEST(Cholesky, T1IsSinglePotrf) {
  const auto g = rd::cholesky_graph(1);
  EXPECT_EQ(g.num_tasks(), 1u);
  EXPECT_EQ(g.kernel(0), rd::kPotrf);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Cholesky, T2HasKnownShape) {
  // POTRF(0) -> TRSM(1,0) -> SYRK -> POTRF(1), a chain of 4 tasks.
  const auto g = rd::cholesky_graph(2);
  EXPECT_EQ(g.num_tasks(), 4u);
  EXPECT_EQ(g.depth(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Qr, WiderAndAtLeastAsDeepAsCholesky) {
  // QR's TSQRT chains keep its DAG at least as deep as Cholesky's (equal
  // in edge count for these generators) while carrying ~3x the tasks.
  for (int t : {4, 6, 8}) {
    EXPECT_GE(rd::qr_graph(t).depth(), rd::cholesky_graph(t).depth());
    EXPECT_GT(rd::qr_graph(t).num_tasks(), rd::cholesky_graph(t).num_tasks());
  }
}

TEST(RandomDag, RespectsConfiguration) {
  readys::util::Rng rng(42);
  rd::RandomDagConfig cfg;
  cfg.layers = 5;
  cfg.width = 4;
  cfg.kernel_types = 3;
  const auto g = rd::random_layered_dag(cfg, rng);
  EXPECT_EQ(g.num_tasks(), 20u);
  EXPECT_EQ(g.num_kernel_types(), 3);
  EXPECT_EQ(g.depth(), 4u);  // connect_layers guarantees full depth
  EXPECT_EQ(g.topological_order().size(), 20u);
}

TEST(RandomDag, Deterministic) {
  readys::util::Rng rng1(7);
  readys::util::Rng rng2(7);
  rd::RandomDagConfig cfg;
  const auto a = rd::random_layered_dag(cfg, rng1);
  const auto b = rd::random_layered_dag(cfg, rng2);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (rd::TaskId t = 0; t < a.num_tasks(); ++t) {
    EXPECT_EQ(a.kernel(t), b.kernel(t));
    EXPECT_EQ(a.successors(t), b.successors(t));
  }
}
