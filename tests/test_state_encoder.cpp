#include <gtest/gtest.h>

#include "dag/cholesky.hpp"
#include "rl/state_encoder.hpp"

namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rr = readys::rl;

namespace {

struct Fixture {
  rd::TaskGraph graph = rd::cholesky_graph(4);
  rs::Platform platform = rs::Platform::hybrid(2, 2);
  rs::CostModel costs = rs::CostModel::cholesky();
};

}  // namespace

TEST(StateEncoder, WidthsAreConsistent) {
  EXPECT_EQ(rr::StateEncoder::node_feature_width(4), 17);
  EXPECT_EQ(rr::StateEncoder::kResourceFeatureWidth, 8);
}

TEST(StateEncoder, InitialObservationHasSourceReady) {
  Fixture f;
  rs::SimEngine engine(f.graph, f.platform, f.costs, 0.0, 1);
  rr::StateEncoder enc(f.graph, f.costs, 1);
  const auto obs = enc.encode(engine, 0);
  ASSERT_EQ(obs.ready_tasks.size(), 1u);
  EXPECT_EQ(obs.ready_tasks.front(), f.graph.sources().front());
  EXPECT_FALSE(obs.allow_idle);  // nothing running yet
  EXPECT_EQ(obs.num_actions(), 1u);
  EXPECT_EQ(obs.features.rows(), obs.window.size());
  EXPECT_EQ(obs.features.cols(), 17u);
  EXPECT_EQ(obs.ahat_csr.rows(), obs.window.size());
}

TEST(StateEncoder, WindowGrowsWithW) {
  Fixture f;
  rs::SimEngine engine(f.graph, f.platform, f.costs, 0.0, 1);
  std::size_t prev = 0;
  for (int w = 0; w <= 3; ++w) {
    rr::StateEncoder enc(f.graph, f.costs, w);
    const auto obs = enc.encode(engine, 0);
    EXPECT_GE(obs.window.size(), prev);
    prev = obs.window.size();
  }
  EXPECT_GT(prev, 1u);
}

TEST(StateEncoder, RunningTaskFlagsSet) {
  Fixture f;
  rs::SimEngine engine(f.graph, f.platform, f.costs, 0.0, 1);
  const auto src = f.graph.sources().front();
  engine.start(src, 3);  // a GPU
  rr::StateEncoder enc(f.graph, f.costs, 2);
  const auto obs = enc.encode(engine, 0);
  EXPECT_TRUE(obs.allow_idle);
  const auto pos = obs.window.position_of(src);
  ASSERT_NE(pos, rd::Window::npos);
  const int base = enc.static_features().static_width();
  EXPECT_DOUBLE_EQ(obs.features.at(pos, base + 0), 0.0);  // not ready
  EXPECT_DOUBLE_EQ(obs.features.at(pos, base + 1), 1.0);  // running
  EXPECT_GT(obs.features.at(pos, base + 2), 0.0);         // remaining
  EXPECT_DOUBLE_EQ(obs.features.at(pos, base + 3), 1.0);  // on GPU
}

TEST(StateEncoder, ResourceSummaryFields) {
  Fixture f;
  rs::SimEngine engine(f.graph, f.platform, f.costs, 0.0, 1);
  rr::StateEncoder enc(f.graph, f.costs, 1);
  {
    const auto obs = enc.encode(engine, 0);  // CPU current
    EXPECT_DOUBLE_EQ(obs.resource_state[0], 0.0);
    EXPECT_DOUBLE_EQ(obs.resource_state[1], 1.0);  // all CPUs idle
    EXPECT_DOUBLE_EQ(obs.resource_state[2], 1.0);  // all GPUs idle
    EXPECT_DOUBLE_EQ(obs.resource_state[5], 0.5);  // CPU share
    EXPECT_DOUBLE_EQ(obs.resource_state[6], 0.5);  // GPU share
  }
  {
    const auto obs = enc.encode(engine, 2);  // GPU current
    EXPECT_DOUBLE_EQ(obs.resource_state[0], 1.0);
  }
  engine.start(f.graph.sources().front(), 0);
  {
    const auto obs = enc.encode(engine, 1);
    EXPECT_DOUBLE_EQ(obs.resource_state[1], 0.5);  // one CPU busy
    // CPU 1 is still idle, so the earliest CPU availability stays 0.
    EXPECT_DOUBLE_EQ(obs.resource_state[3], 0.0);
    EXPECT_DOUBLE_EQ(obs.resource_state[4], 0.0);  // GPUs available now
  }
  {
    // With every CPU busy the earliest CPU availability must be positive.
    rs::SimEngine busy(f.graph, rs::Platform::cpus(1), f.costs, 0.0, 1);
    busy.start(f.graph.sources().front(), 0);
    rr::StateEncoder enc1(f.graph, f.costs, 1);
    const auto obs = enc1.encode(busy, 0, true);
    EXPECT_GT(obs.resource_state[3], 0.0);
  }
}

TEST(StateEncoder, ReadyPositionsAlignWithTasks) {
  Fixture f;
  rs::SimEngine engine(f.graph, f.platform, f.costs, 0.0, 1);
  // Run the source to get several ready tasks (3 TRSMs for T=4).
  engine.start(f.graph.sources().front(), 0);
  engine.advance();
  ASSERT_EQ(engine.ready().size(), 3u);
  rr::StateEncoder enc(f.graph, f.costs, 1);
  const auto obs = enc.encode(engine, 0);
  ASSERT_EQ(obs.ready_tasks.size(), 3u);
  ASSERT_EQ(obs.ready_positions.size(), 3u);
  for (std::size_t i = 0; i < obs.ready_tasks.size(); ++i) {
    EXPECT_EQ(obs.window.nodes[obs.ready_positions[i]], obs.ready_tasks[i]);
  }
}

TEST(StateEncoder, CpuOnlyPlatformHasGpuDefaults) {
  Fixture f;
  const auto p = rs::Platform::cpus(4);
  rs::SimEngine engine(f.graph, p, f.costs, 0.0, 1);
  rr::StateEncoder enc(f.graph, f.costs, 1);
  const auto obs = enc.encode(engine, 0);
  EXPECT_DOUBLE_EQ(obs.resource_state[2], 0.0);  // no GPUs to be idle
  EXPECT_DOUBLE_EQ(obs.resource_state[6], 0.0);  // zero GPU share
  EXPECT_DOUBLE_EQ(obs.resource_state[4], 1.0);  // sentinel availability
}

// --- IncrementalEncoder equivalence ---------------------------------------
//
// The fast-path contract: IncrementalEncoder::encode is bit-identical to
// StateEncoder::encode on the same engine state, across every event type
// the simulator produces — starts, completions, fault kill-and-re-ready,
// and the cluster layer's scoped views (where a stolen task leaves the
// shard's ready list while staying globally ready).

#include "cluster/shard_sched.hpp"
#include "sched/mct.hpp"
#include "sim/fault_model.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

void expect_observations_equal(const rr::Observation& a,
                               const rr::Observation& b) {
  ASSERT_EQ(a.window.nodes, b.window.nodes);
  ASSERT_EQ(a.window.edges, b.window.edges);
  ASSERT_EQ(a.window.depth, b.window.depth);
  ASSERT_EQ(a.features.rows(), b.features.rows());
  ASSERT_EQ(a.features.cols(), b.features.cols());
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    ASSERT_EQ(a.features[i], b.features[i]) << "feature " << i;
  }
  ASSERT_EQ(a.ahat_csr.row_ptr, b.ahat_csr.row_ptr);
  ASSERT_EQ(a.ahat_csr.col, b.ahat_csr.col);
  ASSERT_EQ(a.ahat_csr.val, b.ahat_csr.val);
  ASSERT_EQ(a.ready_positions, b.ready_positions);
  ASSERT_EQ(a.ready_tasks, b.ready_tasks);
  for (std::size_t i = 0; i < a.resource_state.size(); ++i) {
    ASSERT_EQ(a.resource_state[i], b.resource_state[i]);
  }
  ASSERT_EQ(a.current_resource, b.current_resource);
  ASSERT_EQ(a.allow_idle, b.allow_idle);
}

/// Scheduler wrapper comparing full vs incremental encodings at every
/// decision instant, for every idle resource, then delegating to MCT so
/// the run makes progress. Used under both the plain Simulator and the
/// cluster's shard coordinator (scoped views with steals).
class ComparingScheduler final : public rs::Scheduler {
 public:
  explicit ComparingScheduler(int window) : window_(window) {}

  void reset(const rs::EngineView& view) override {
    full_ = std::make_unique<rr::StateEncoder>(view.graph(), view.costs(),
                                               window_);
    inc_ = std::make_unique<rr::IncrementalEncoder>(view.graph(), view.costs(),
                                                    window_);
    inner_.reset(view);
  }

  std::vector<rs::Assignment> decide(const rs::EngineView& view) override {
    if (!view.ready().empty()) {
      for (const rs::ResourceId r : view.idle_resources()) {
        const rr::Observation a = full_->encode(view, r);
        const rr::Observation& b = inc_->encode(view, r);
        expect_observations_equal(a, b);
        ++comparisons_;
      }
    }
    return inner_.decide(view);
  }

  std::string name() const override { return "comparing:mct"; }
  std::size_t comparisons() const noexcept { return comparisons_; }

 private:
  int window_;
  std::unique_ptr<rr::StateEncoder> full_;
  std::unique_ptr<rr::IncrementalEncoder> inc_;
  readys::sched::MctScheduler inner_;
  std::size_t comparisons_ = 0;
};

}  // namespace

TEST(IncrementalEncoder, MatchesFullEncoderThroughACleanRun) {
  Fixture f;
  for (const int w : {1, 2}) {
    ComparingScheduler sched(w);
    rs::Simulator sim(f.graph, f.platform, f.costs, {0.3, 7, {}, {}});
    const auto r = sim.run(sched);
    EXPECT_GT(r.makespan, 0.0);
    EXPECT_GT(sched.comparisons(), f.graph.num_tasks());
  }
}

TEST(IncrementalEncoder, MatchesFullEncoderUnderFaultKillAndReReady) {
  // Outages kill running tasks, which later re-enter the ready set —
  // the event type that moves a task backwards through the lifecycle.
  // Drive the engine directly so we can assert the scenario actually
  // happened (lost executions > 0), not just that the run finished.
  Fixture f;
  rs::FaultModel faults;
  faults.outage_rate = 0.05;  // expected first arrival ~20 ms
  faults.mean_downtime = 10.0;
  rs::SimEngine engine(f.graph, f.platform, f.costs, faults, 0.3, 11);
  ComparingScheduler sched(2);
  sched.reset(engine);
  std::size_t guard = 0;
  while (!engine.finished()) {
    ASSERT_LT(++guard, 100000u) << "fault run failed to converge";
    for (const auto& a : sched.decide(engine)) engine.start(a.task, a.resource);
    if (!engine.finished()) engine.advance();
  }
  EXPECT_GE(engine.num_outages(), 1u);
  EXPECT_GE(engine.num_lost_executions(), 1u)
      << "no task was killed mid-flight; raise outage_rate";
  EXPECT_GT(sched.comparisons(), f.graph.num_tasks());
}

TEST(IncrementalEncoder, MatchesFullEncoderOnScopedViewsWithSteals) {
  // Shard-scoped EngineViews: each inner scheduler sees its shard's
  // ready list, and steals move tasks between shards without the victim
  // shard's seed list changing — the case that forces the incremental
  // encoder to rescan readiness globally.
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(8, 8);
  std::vector<ComparingScheduler*> watchers;
  std::vector<std::unique_ptr<rs::Scheduler>> inners;
  for (int s = 0; s < 4; ++s) {
    auto c = std::make_unique<ComparingScheduler>(2);
    watchers.push_back(c.get());
    inners.push_back(std::move(c));
  }
  readys::cluster::ShardScheduler::Options opts;
  opts.shards = 4;
  readys::cluster::ShardScheduler sched(std::move(inners), opts,
                                        "comparing:mct");
  rs::Simulator sim(graph, platform, costs, {0.1, 5});
  const auto r = sim.run(sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
  EXPECT_GT(sched.steals(), 0u) << "workload was built to force steals";
  std::size_t total = 0;
  for (const ComparingScheduler* c : watchers) total += c->comparisons();
  EXPECT_GT(total, 0u);
}

TEST(IncrementalEncoder, ReusesTopologyAcrossIdleDeclines) {
  // Consecutive offers at one decision instant (different current
  // resource, same seeds) must reuse the cached window and Â outright.
  Fixture f;
  rs::SimEngine engine(f.graph, f.platform, f.costs, 0.0, 1);
  engine.start(f.graph.sources().front(), 0);
  engine.advance();  // 3 TRSMs ready
  engine.start(engine.ready().front(), 1);
  rr::IncrementalEncoder inc(f.graph, f.costs, 2);
  (void)inc.encode(engine, 0);
  const auto rebuilds = inc.window_rebuilds();
  (void)inc.encode(engine, 2);  // same instant, different offer
  (void)inc.encode(engine, 3);
  EXPECT_EQ(inc.window_rebuilds(), rebuilds);
  EXPECT_EQ(inc.window_reuses(), 2u);
}

// --- SchedulingEnv differential -------------------------------------------
//
// Training observes through SchedulingEnv, whose IncrementalEncoder lives
// across reset(): every observation must still equal a from-scratch
// StateEncoder::encode of the same engine state, through fault
// kill-and-re-ready, random offers and ∅ declines, episode after episode.

#include "rl/env.hpp"

TEST(SchedulingEnv, ObservationsMatchReferenceEncoderAcrossResets) {
  Fixture f;
  rr::SchedulingEnv::Config cfg;
  cfg.sigma = 0.3;
  cfg.window = 2;
  cfg.seed = 5;
  cfg.random_offer = true;
  cfg.faults.outage_rate = 0.05;  // expected first arrival ~20 ms
  cfg.faults.mean_downtime = 10.0;
  rr::SchedulingEnv env(f.graph, f.platform, f.costs, cfg);
  const rr::StateEncoder reference(f.graph, f.costs, cfg.window);
  readys::util::Rng rng(17);
  std::size_t compared = 0, idles = 0, outages = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const rr::Observation* obs = &env.reset(seed);
    for (bool done = false; !done; obs = &env.observation()) {
      expect_observations_equal(
          reference.encode(env.engine(), obs->current_resource,
                           obs->allow_idle),
          *obs);
      if (HasFatalFailure()) return;
      ++compared;
      const std::size_t a = rng.uniform_index(obs->num_actions());
      if (obs->allow_idle && a == obs->idle_action()) ++idles;
      done = env.step(a).done;
    }
    outages += env.engine().num_outages();
  }
  EXPECT_GT(compared, 4 * f.graph.num_tasks());
  EXPECT_GT(idles, 0u) << "the random policy never declined";
  EXPECT_GT(outages, 0u) << "no outage fired; raise outage_rate";
}
