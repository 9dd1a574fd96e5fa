// Property tests over every scheduler x application x platform x noise
// combination: traces must always be valid schedules, makespans must
// respect lower bounds, and dynamic schedulers must not stall.

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "cluster/register.hpp"
#include "core/apps.hpp"
#include "core/evaluation.hpp"
#include "dag/cholesky.hpp"
#include "dag/random_dag.hpp"
#include "sched/critical_path.hpp"
#include "sched/greedy_eft.hpp"
#include "sched/guarded.hpp"
#include "sched/heft.hpp"
#include "sched/mct.hpp"
#include "sched/random_sched.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace rc = readys::core;
namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rx = readys::sched;

namespace {

/// Lower bound at sigma = 0: the critical path priced at each task's
/// fastest resource, and the total work over all resources assuming every
/// task runs at its fastest.
double makespan_lower_bound(const rd::TaskGraph& g, const rs::Platform& p,
                            const rs::CostModel& c) {
  auto fastest = [&](rd::TaskId t) {
    double best = std::numeric_limits<double>::infinity();
    for (rs::ResourceId r = 0; r < p.size(); ++r) {
      best = std::min(best, c.expected(g, t, p, r));
    }
    return best;
  };
  std::vector<double> finish(g.num_tasks(), 0.0);
  double cp = 0.0;
  double work = 0.0;
  for (rd::TaskId t : g.topological_order()) {
    double ready = 0.0;
    for (rd::TaskId q : g.predecessors(t)) ready = std::max(ready, finish[q]);
    finish[t] = ready + fastest(t);
    cp = std::max(cp, finish[t]);
    work += fastest(t);
  }
  return std::max(cp, work / static_cast<double>(p.size()));
}

struct Combo {
  std::string scheduler;
  rc::App app;
  int tiles;
  int cpus;
  int gpus;
  double sigma;
};

void PrintTo(const Combo& c, std::ostream* os) {
  *os << c.scheduler << "_" << rc::app_name(c.app) << "_T" << c.tiles << "_"
      << c.cpus << "c" << c.gpus << "g_s" << c.sigma;
}

rc::SchedulerFactory factory_by_name(const std::string& name) {
  if (name == "heft") return rc::heft_factory();
  if (name == "mct") return rc::mct_factory();
  if (name == "random") return rc::random_factory();
  if (name == "greedy") return rc::greedy_eft_factory();
  return rc::critical_path_factory();
}

class SchedulerProperty : public ::testing::TestWithParam<Combo> {};

}  // namespace

TEST_P(SchedulerProperty, ProducesValidScheduleAboveLowerBound) {
  const Combo combo = GetParam();
  const auto g = rc::make_graph(combo.app, combo.tiles);
  const auto c = rc::make_costs(combo.app);
  const rs::Platform p = rs::Platform::hybrid(combo.cpus, combo.gpus);
  auto scheduler = factory_by_name(combo.scheduler)(17);
  rs::Simulator sim(g, p, c, {combo.sigma, 17});
  const auto result = sim.run(*scheduler);
  ASSERT_EQ(result.trace.validate(g, p), "");
  EXPECT_EQ(result.trace.size(), g.num_tasks());
  if (combo.sigma == 0.0) {
    EXPECT_GE(result.makespan, makespan_lower_bound(g, p, c) - 1e-9);
  } else {
    EXPECT_GT(result.makespan, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerProperty, ::testing::ValuesIn([] {
      std::vector<Combo> combos;
      for (const std::string& s :
           {"heft", "mct", "random", "greedy", "cp"}) {
        for (rc::App app :
             {rc::App::kCholesky, rc::App::kLu, rc::App::kQr}) {
          for (int tiles : {2, 5}) {
            for (auto [cpus, gpus] :
                 {std::pair{3, 0}, std::pair{2, 2}, std::pair{0, 3}}) {
              for (double sigma : {0.0, 0.5}) {
                combos.push_back({s, app, tiles, cpus, gpus, sigma});
              }
            }
          }
        }
      }
      return combos;
    }()));

TEST(SchedulerProperty, RandomLayeredDagsAllSchedulersValid) {
  readys::util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    rd::RandomDagConfig cfg;
    cfg.layers = 3 + static_cast<int>(rng.uniform_index(4));
    cfg.width = 2 + static_cast<int>(rng.uniform_index(5));
    cfg.edge_density = rng.uniform(0.2, 0.9);
    const auto g = rd::random_layered_dag(cfg, rng);
    const auto c = rs::CostModel::uniform(cfg.kernel_types, 10.0, 3.0);
    const auto p = rs::Platform::hybrid(2, 1);
    for (const std::string& s : {"heft", "mct", "random", "greedy", "cp"}) {
      auto scheduler = factory_by_name(s)(trial);
      rs::Simulator sim(g, p, c, {0.3, static_cast<std::uint64_t>(trial)});
      const auto result = sim.run(*scheduler);
      EXPECT_EQ(result.trace.validate(g, p), "")
          << s << " trial " << trial;
    }
  }
}

TEST(SchedulerProperty, HeftBeatsRandomOnAverage) {
  const auto g = rc::make_graph(rc::App::kCholesky, 6);
  const auto c = rc::make_costs(rc::App::kCholesky);
  const auto p = rs::Platform::hybrid(2, 2);
  const auto heft = rc::evaluate_makespans(g, p, c, rc::heft_factory(), 0.0,
                                           1, 1);
  const auto rnd = rc::evaluate_makespans(g, p, c, rc::random_factory(), 0.0,
                                          10, 1);
  EXPECT_LT(heft.front(), readys::util::mean(rnd));
}

TEST(SchedulerProperty, EvaluationIsThreadSafe) {
  const auto g = rc::make_graph(rc::App::kLu, 5);
  const auto c = rc::make_costs(rc::App::kLu);
  const auto p = rs::Platform::hybrid(2, 2);
  readys::util::ThreadPool pool(4);
  const auto serial = rc::evaluate_makespans(g, p, c, rc::mct_factory(), 0.4,
                                             16, 7, nullptr);
  const auto parallel = rc::evaluate_makespans(g, p, c, rc::mct_factory(),
                                               0.4, 16, 7, &pool);
  EXPECT_EQ(serial, parallel);  // per-run seeding makes this exact
}

// --- MCT's tree path against its scan ------------------------------------
//
// Without faults and without comm pricing, MCT on a wide platform binds
// through one tournament tree per resource type and finds idle resources
// through the engine's freed log; "mct-comm" with no comm model always
// scans every resource. Both must produce the same schedule bit for bit,
// ties and rounding collisions included.

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_hash(const rs::Trace& trace) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& e : trace.entries()) {
    h = fnv1a(h, &e.task, sizeof(e.task));
    h = fnv1a(h, &e.resource, sizeof(e.resource));
    h = fnv1a(h, &e.start, sizeof(e.start));
    h = fnv1a(h, &e.finish, sizeof(e.finish));
  }
  return h;
}

/// Four layers of 2P tasks (at least 4), mean in-degree about 4: ready
/// batches scale with the platform, like the sim_wide_mct workload.
rd::TaskGraph layered_dag(int p, std::uint64_t seed) {
  rd::RandomDagConfig cfg;
  cfg.layers = 4;
  cfg.width = std::max(4, 2 * p);
  cfg.edge_density = std::min(1.0, 4.0 / static_cast<double>(cfg.width));
  cfg.kernel_types = 4;
  readys::util::Rng rng(seed);
  return rd::random_layered_dag(cfg, rng);
}

/// Durations whose queue tails differ in the last bits (0.1 + 0.2 is not
/// 0.3) next to one that rounds those bits away: different keys then
/// round to the same completion, where the scan keeps the lowest id.
rs::CostModel rounding_costs() {
  return rs::CostModel("rounding", {{0.1, 0.2}, {0.2, 0.1}, {0.3, 0.3},
                                    {1000.0, 999.9}});
}

void expect_same_run(rs::Scheduler& a, rs::Scheduler& b,
                     const rd::TaskGraph& g, const rs::Platform& p,
                     const rs::CostModel& c, double sigma,
                     std::uint64_t seed, const std::string& what) {
  rs::Simulator sim(g, p, c, {sigma, seed});
  const auto ra = sim.run(a);
  const auto rb = sim.run(b);
  ASSERT_EQ(ra.trace.validate(g, p), "") << what;
  EXPECT_EQ(ra.makespan, rb.makespan) << what;
  EXPECT_EQ(trace_hash(ra.trace), trace_hash(rb.trace)) << what;
}

/// Resets a scratch MCT onto the live engine at every decision, so every
/// decision builds MCT's state from mid-episode (busy resources with
/// expected finishes, some of them overdue).
class OneShotEveryDecision : public rs::Scheduler {
 public:
  explicit OneShotEveryDecision(bool comm_aware) : mct_(comm_aware) {}
  void reset(const rs::EngineView&) override {}
  std::vector<rs::Assignment> decide(const rs::EngineView& view) override {
    return rx::one_shot_mct(mct_, view);
  }
  std::string name() const override { return "one-shot " + mct_.name(); }

 private:
  rx::MctScheduler mct_;
};

/// CPUs and GPUs alternating, so the lowest id of a tie can sit in
/// either type's tree.
rs::Platform interleaved(int p) {
  std::vector<rs::ResourceType> types;
  for (int r = 0; r < p; ++r) {
    types.push_back(r % 2 == 0 ? rs::ResourceType::kGpu
                               : rs::ResourceType::kCpu);
  }
  return rs::Platform(types);
}

}  // namespace

TEST(MctTreesMatchScan, EveryPlatformDagAndSigma) {
  for (const int p : {1, 3, 16, 32, 256, 1024}) {
    const std::pair<const char*, rs::Platform> platforms[] = {
        {" hybrid", rs::Platform::hybrid(p - p / 2, p / 2)},
        {" cpus", rs::Platform::cpus(p)},
        {" interleaved", interleaved(p)},
        {" one gpu", rs::Platform::hybrid(p - 1, 1)}};
    for (const auto& [label, platform] : platforms) {
      for (const bool layered : {true, false}) {
        const auto g = layered ? layered_dag(p, 11 + static_cast<unsigned>(p))
                               : rd::cholesky_graph(12);
        for (const bool rounding : {false, true}) {
          const auto costs =
              rounding ? rounding_costs() : rs::CostModel::cholesky();
          // The seed only draws noise, so sigma 0 needs one.
          for (const auto& [sigma, seed] :
               {std::pair{0.0, 1ull}, std::pair{0.1, 1ull},
                std::pair{0.1, 2ull}}) {
            auto tree = rx::make_scheduler("mct");
            auto scan = rx::make_scheduler("mct-comm");
            expect_same_run(*tree, *scan, g, platform, costs, sigma, seed,
                            "P=" + std::to_string(p) + label +
                                (layered ? " layered" : " cholesky") +
                                (rounding ? " rounding" : "") +
                                " sigma=" + std::to_string(sigma) +
                                " seed=" + std::to_string(seed));
          }
        }
      }
    }
  }
}

TEST(MctTreesMatchScan, ShardedInners) {
  readys::cluster::register_cluster_scheduler();
  for (const int p : {64, 256}) {
    const rs::Platform platform = rs::Platform::hybrid(p / 2, p / 2);
    for (const bool layered : {true, false}) {
      const auto g = layered ? layered_dag(p, 5) : rd::cholesky_graph(12);
      for (const int k : {1, 4, 16}) {
        for (const double sigma : {0.0, 0.1}) {
          const std::string shard =
              "shard(shards=" + std::to_string(k) + "):";
          auto tree = rx::make_scheduler(shard + "mct");
          auto scan = rx::make_scheduler(shard + "mct-comm");
          expect_same_run(*tree, *scan, g, platform,
                          rs::CostModel::cholesky(), sigma, 3,
                          "P=" + std::to_string(p) + " K=" + std::to_string(k) +
                              (layered ? " layered" : " cholesky") +
                              " sigma=" + std::to_string(sigma));
        }
      }
    }
  }
}

TEST(MctTreesMatchScan, OneShotMidEpisode) {
  // Every decision rebinds the whole ready set, so keep the DAGs small.
  for (const int p : {32, 256}) {
    const rs::Platform platform = rs::Platform::hybrid(p / 2, p / 2);
    for (const bool layered : {true, false}) {
      const auto g = layered ? layered_dag(16, 9) : rd::cholesky_graph(8);
      for (const double sigma : {0.0, 0.1}) {
        OneShotEveryDecision tree(false);
        OneShotEveryDecision scan(true);
        expect_same_run(tree, scan, g, platform, rs::CostModel::cholesky(),
                        sigma, 4,
                        "P=" + std::to_string(p) +
                            (layered ? " layered" : " cholesky") +
                            " sigma=" + std::to_string(sigma));
      }
    }
  }
}
