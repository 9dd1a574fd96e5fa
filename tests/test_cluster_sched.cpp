// Property suite for the decentralized shard scheduler: task
// conservation under steal interleavings, heartbeat state-machine
// validity, bounded staleness of the cross-shard directory, the
// partition, and the registry surface of the "shard:<inner>" family.
// Style follows the mapf-het-inspired invariant tests in
// tests/test_schedulers_property.cpp: run real episodes, then assert
// invariants that must hold under EVERY interleaving rather than pinning
// one specific schedule. ShardPin at the end is the exception: it pins a
// fixed grid of runs bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/heartbeat.hpp"
#include "cluster/partition.hpp"
#include "cluster/register.hpp"
#include "cluster/shard_sched.hpp"
#include "dag/cholesky.hpp"
#include "sched/guarded.hpp"
#include "sched/mct.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace rc = readys::cluster;
namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rx = readys::sched;

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

std::unique_ptr<rc::ShardScheduler> make_shard_mct(
    rc::ShardScheduler::Options opts) {
  std::vector<std::unique_ptr<rs::Scheduler>> inners;
  for (int s = 0; s < opts.shards; ++s) {
    inners.push_back(std::make_unique<rx::MctScheduler>());
  }
  return std::make_unique<rc::ShardScheduler>(std::move(inners), opts, "mct");
}

/// Probe that samples the coordinator's directory clock after every
/// decide, so the bounded-staleness property can be asserted across a
/// whole episode without instrumenting the scheduler itself.
class StaleProbe : public rs::Scheduler {
 public:
  StaleProbe(rc::ShardScheduler& inner) : inner_(&inner) {}
  void reset(const rs::EngineView& view) override { inner_->reset(view); }
  std::vector<rs::Assignment> decide(const rs::EngineView& view) override {
    const auto out = inner_->decide(view);
    const double at = inner_->directory_refreshed_at();
    EXPECT_GE(at, last_at_) << "directory timestamp went backwards";
    EXPECT_LE(at, view.now() + 1e-12) << "directory refreshed in the future";
    EXPECT_LT(view.now() - at, inner_->options().stale_ms + 1e-12)
        << "directory older than the staleness bound after decide";
    last_at_ = at;
    return out;
  }
  std::string name() const override { return inner_->name(); }

 private:
  rc::ShardScheduler* inner_;
  double last_at_ = 0.0;
};

}  // namespace

// Cholesky starts from a single POTRF, so every second-wave task is
// owned by the producer's shard — the other shards MUST steal to get
// work. Conservation: every task still executes exactly once and the
// trace stays a valid schedule, no matter how ownership migrated.
TEST(ClusterSched, TaskConservationUnderStealInterleavings) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(8, 8);
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    rc::ShardScheduler::Options opts;
    opts.shards = 4;
    opts.stale_ms = 5.0;
    auto sched = make_shard_mct(opts);
    rs::Simulator sim(graph, platform, costs, {0.1, seed});
    const auto r = sim.run(*sched);
    EXPECT_EQ(r.trace.validate(graph, platform), "");
    EXPECT_EQ(r.trace.size(), graph.num_tasks());
    EXPECT_GT(sched->steals(), 0u) << "workload was built to force steals";
    EXPECT_GE(sched->stolen_tasks(), sched->steals());
    // Conservation while stealing: nothing duplicated, nothing lost —
    // every shard queue drained by the end.
    for (int s = 0; s < sched->num_shards(); ++s) {
      EXPECT_TRUE(sched->shard_queue(s).empty());
    }
  }
}

// A guarded inner must not count a stolen-away task as a strike: the
// scoped view answers is_ready globally, so a late proposal for stolen
// work passes the guard and gets dropped by the coordinator's ownership
// check instead. Were it otherwise, three steals from one shard would
// permanently degrade its guarded:readys agent to MCT.
TEST(ClusterSched, GuardedInnersSurviveStealInterleavings) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(8, 8);
  std::vector<rx::GuardedScheduler*> guards;
  std::vector<std::unique_ptr<rs::Scheduler>> inners;
  for (int s = 0; s < 4; ++s) {
    auto g = std::make_unique<rx::GuardedScheduler>(
        std::make_unique<rx::MctScheduler>());
    guards.push_back(g.get());
    inners.push_back(std::move(g));
  }
  rc::ShardScheduler::Options opts;
  opts.shards = 4;
  rc::ShardScheduler sched(std::move(inners), opts, "guarded:mct");
  rs::Simulator sim(graph, platform, costs, {0.1, 5});
  const auto r = sim.run(sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
  EXPECT_GT(sched.steals(), 0u) << "workload was built to force steals";
  for (const rx::GuardedScheduler* g : guards) {
    EXPECT_FALSE(g->degraded());
    EXPECT_EQ(g->fallback_decisions(), 0u);
  }
}

TEST(ClusterSched, StealingDisabledStillCompletesViaRescue) {
  const auto graph = rd::cholesky_graph(6);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(4, 4);
  rc::ShardScheduler::Options opts;
  opts.shards = 4;
  opts.steal = false;
  auto sched = make_shard_mct(opts);
  rs::Simulator sim(graph, platform, costs, {0.0, 3});
  const auto r = sim.run(*sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
  EXPECT_EQ(sched->steals(), 0u);
}

// The failure detector only worsens one step per observation and only
// revives on a heard heartbeat: alive->dead and dead->suspect must
// never appear in the transition matrix, dead->alive requires the
// resource to actually be up (a recovery), and under an outage/recovery
// fault model transitions do happen.
TEST(ClusterSched, HeartbeatTransitionValidityUnderFaults) {
  const auto graph = rd::cholesky_graph(10);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(6, 6);
  rs::FaultModel faults;
  faults.outage_rate = 0.004;
  faults.mean_downtime = 120.0;
  rc::ShardScheduler::Options opts;
  opts.shards = 3;
  opts.hb_period_ms = 1.0;
  opts.hb_suspect = 2;
  opts.hb_dead = 4;
  auto sched = make_shard_mct(opts);
  rs::Simulator::Options opt;
  opt.sigma = 0.1;
  opt.seed = 17;
  opt.faults = faults;
  rs::Simulator sim(graph, platform, costs, opt);
  const auto r = sim.run(*sched);
  EXPECT_EQ(r.trace.size(), graph.num_tasks());
  const auto& m = sched->heartbeat().transition_counts();
  const auto alive = static_cast<int>(rc::HbState::kAlive);
  const auto suspect = static_cast<int>(rc::HbState::kSuspect);
  const auto dead = static_cast<int>(rc::HbState::kDead);
  EXPECT_EQ(m[alive][dead], 0u) << "alive may never jump straight to dead";
  EXPECT_EQ(m[dead][suspect], 0u) << "dead only revives on a heartbeat";
  for (int i = 0; i < rc::kNumHbStates; ++i) {
    EXPECT_EQ(m[i][i], 0u) << "self-transitions are not transitions";
  }
  EXPECT_GT(sched->heartbeat().total_transitions(), 0u)
      << "outages lasting >> dead_after beats must be detected";
  EXPECT_GT(m[alive][suspect], 0u);
}

// Unit-level detector check with a hand-driven liveness sequence: a
// silenced resource degrades alive -> suspect -> dead over observations
// and snaps back to alive only once heartbeats resume.
TEST(ClusterSched, HeartbeatMonitorDetectsOutageAndRecovery) {
  rc::HeartbeatMonitor::Config cfg;
  cfg.period_ms = 1.0;
  cfg.suspect_after = 2;
  cfg.dead_after = 4;
  rc::HeartbeatMonitor mon(cfg);
  mon.reset(2, 0.0);
  std::vector<std::uint8_t> up = {1, 1};
  mon.observe(1.5, up);
  EXPECT_EQ(mon.state(0), rc::HbState::kAlive);
  up[0] = 0;  // resource 0 goes silent
  bool saw_suspect = false;
  for (double t = 2.0; t <= 10.0; t += 0.5) {
    mon.observe(t, up);
    if (mon.state(0) == rc::HbState::kSuspect) saw_suspect = true;
    // Resource 1 keeps heartbeating and never degrades.
    EXPECT_EQ(mon.state(1), rc::HbState::kAlive);
  }
  EXPECT_TRUE(saw_suspect) << "must pass through suspect on the way down";
  EXPECT_EQ(mon.state(0), rc::HbState::kDead);
  EXPECT_FALSE(mon.believed_alive(0));
  up[0] = 1;  // recovery: heartbeats resume
  mon.observe(12.0, up);
  EXPECT_EQ(mon.state(0), rc::HbState::kAlive);
  const auto& m = mon.transition_counts();
  EXPECT_EQ(m[static_cast<int>(rc::HbState::kDead)]
             [static_cast<int>(rc::HbState::kAlive)],
            1u);
  EXPECT_EQ(m[static_cast<int>(rc::HbState::kAlive)]
             [static_cast<int>(rc::HbState::kDead)],
            0u);
}

TEST(ClusterSched, DirectoryStalenessIsBoundedAndMonotone) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(4, 4);
  for (const double stale : {0.5, 5.0, 50.0}) {
    rc::ShardScheduler::Options opts;
    opts.shards = 4;
    opts.stale_ms = stale;
    auto sched = make_shard_mct(opts);
    StaleProbe probe(*sched);
    rs::Simulator sim(graph, platform, costs, {0.1, 2});
    const auto r = sim.run(probe);
    EXPECT_EQ(r.trace.validate(graph, platform), "");
  }
}

// Parallel per-shard decide must be observationally identical to the
// serial path (disjoint scopes, results applied in shard order).
TEST(ClusterSched, ParallelDecideMatchesSerial) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(8, 8);
  rc::ShardScheduler::Options serial_opts;
  serial_opts.shards = 4;
  auto serial = make_shard_mct(serial_opts);
  rc::ShardScheduler::Options par_opts;
  par_opts.shards = 4;
  par_opts.parallel = 4;
  auto parallel = make_shard_mct(par_opts);
  for (const std::uint64_t seed : {1ull, 7ull}) {
    const rs::Simulator::Options opt{0.1, seed};
    rs::Simulator sim_a(graph, platform, costs, opt);
    rs::Simulator sim_b(graph, platform, costs, opt);
    const auto ra = sim_a.run(*serial);
    const auto rb = sim_b.run(*parallel);
    ASSERT_DOUBLE_EQ(ra.makespan, rb.makespan) << "seed=" << seed;
    ASSERT_EQ(ra.trace.size(), rb.trace.size());
    for (std::size_t i = 0; i < ra.trace.entries().size(); ++i) {
      EXPECT_EQ(ra.trace.entries()[i].task, rb.trace.entries()[i].task);
      EXPECT_EQ(ra.trace.entries()[i].resource,
                rb.trace.entries()[i].resource);
    }
  }
}

TEST(ClusterSched, RegistrySurface) {
  rc::register_cluster_scheduler();
  auto& reg = rx::registry();
  EXPECT_TRUE(reg.contains("shard:mct"));
  EXPECT_TRUE(reg.contains("shard(shards=2,steal=0):mct"));
  EXPECT_TRUE(reg.contains("shard(shards=4):guarded:mct"));
  EXPECT_FALSE(reg.contains("shard(bogus=1):mct"));
  EXPECT_FALSE(reg.contains("shard(shards=0):mct"));
  EXPECT_FALSE(reg.contains("shard(dead=1,suspect=3):mct"));
  EXPECT_FALSE(reg.contains("shard(shards=2):nope"));
  EXPECT_FALSE(reg.contains("shardfoo"));
  const auto s = reg.make("shard(shards=2,stale_ms=1.5,parallel=0):mct");
  EXPECT_EQ(s->name(), "shard(2xmct)");
  // The composed family actually runs.
  const auto graph = rd::cholesky_graph(6);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(2, 2);
  auto composed = reg.make("shard(shards=2):guarded:mct");
  rs::Simulator sim(graph, platform, costs, {0.0, 1});
  const auto r = sim.run(*composed);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
}

TEST(ClusterSched, PartitionKeepsShardsHeterogeneous) {
  const auto platform = rs::Platform::hybrid(8, 4);
  const auto part = rc::Partition::by_type_round_robin(platform, 4);
  ASSERT_EQ(part.members.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    int cpus = 0;
    int gpus = 0;
    for (const rs::ResourceId r : part.members[static_cast<std::size_t>(s)]) {
      EXPECT_EQ(part.shard(r), s);
      (platform.type(r) == rs::ResourceType::kCpu ? cpus : gpus)++;
    }
    EXPECT_EQ(cpus, 2);  // 8 CPUs round-robined over 4 shards
    EXPECT_EQ(gpus, 1);  // 4 GPUs round-robined over 4 shards
    // Ascending member lists, as the scoped views require.
    const auto& m = part.members[static_cast<std::size_t>(s)];
    for (std::size_t i = 1; i < m.size(); ++i) EXPECT_LT(m[i - 1], m[i]);
  }
  EXPECT_THROW(rc::Partition::by_type_round_robin(platform, 0),
               std::invalid_argument);
  EXPECT_THROW(rc::Partition::by_type_round_robin(platform, 13),
               std::invalid_argument);
}

TEST(ClusterSched, ShardCountClampsToPlatform) {
  const auto graph = rd::cholesky_graph(4);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(1, 1);  // P = 2
  rc::ShardScheduler::Options opts;
  opts.shards = 8;  // more shards than resources
  auto sched = make_shard_mct(opts);
  rs::Simulator sim(graph, platform, costs, {0.0, 1});
  const auto r = sim.run(*sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
  EXPECT_EQ(sched->num_shards(), 2);
}

// Cross-commit pin of the shard scheduler: trace hash, makespan and
// every coordinator counter of a fixed grid of runs, recorded once and
// compared bit-for-bit. A change to the engine, the scoped views or the
// coordinator that moves any decision shows up here. The constants must
// hold in both READYS_NATIVE_ARCH=ON and OFF builds.
namespace {

struct ShardFingerprint {
  std::uint64_t trace;
  double makespan;
  std::size_t steals;
  std::size_t stolen_tasks;
  std::size_t rescue_fallbacks;
  std::size_t dropped_assignments;
  std::uint64_t hb_transitions;
};

bool operator==(const ShardFingerprint& a, const ShardFingerprint& b) {
  return a.trace == b.trace && a.makespan == b.makespan &&
         a.steals == b.steals && a.stolen_tasks == b.stolen_tasks &&
         a.rescue_fallbacks == b.rescue_fallbacks &&
         a.dropped_assignments == b.dropped_assignments &&
         a.hb_transitions == b.hb_transitions;
}

std::string format_fingerprint(const ShardFingerprint& f) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{0x%016llxULL, %a, %zu, %zu, %zu, %zu, %llu}",
                static_cast<unsigned long long>(f.trace), f.makespan,
                f.steals, f.stolen_tasks, f.rescue_fallbacks,
                f.dropped_assignments,
                static_cast<unsigned long long>(f.hb_transitions));
  return buf;
}

ShardFingerprint run_fingerprint(rc::ShardScheduler& sched,
                                 std::uint64_t seed,
                                 std::optional<rs::CommModel> comm,
                                 std::optional<rs::FaultModel> faults) {
  const auto graph = rd::cholesky_graph(8);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(8, 8);
  const rs::Simulator::Options opt{0.1, seed, comm, faults};
  const auto r = rs::Simulator(graph, platform, costs, opt).run(sched);
  EXPECT_EQ(r.trace.validate(graph, platform), "");
  return {trace_hash(r.trace),        r.makespan,
          sched.steals(),             sched.stolen_tasks(),
          sched.rescue_fallbacks(),   sched.dropped_assignments(),
          sched.heartbeat().total_transitions()};
}

rs::FaultModel pin_faults() {
  rs::FaultModel faults;
  faults.outage_rate = 0.002;
  faults.mean_downtime = 60.0;
  faults.slowdown_rate = 0.004;
  faults.mean_slowdown = 30.0;
  faults.slowdown_factor = 2.0;
  faults.task_failure_prob = 0.02;
  return faults;
}

// Order: configuration {plain, faults, pcie comm} x seed {1, 5} x
// K {2, 4, 8}, then the guarded:mct run.
const ShardFingerprint kShardPin[] = {
    {0xacd4124e34fa1475ULL, 0x1.86cf9e9dbd905p+7, 26, 32, 0, 13, 0},
    {0xbbe32303f0169a12ULL, 0x1.a0c9dd350d5c5p+7, 61, 75, 0, 40, 0},
    {0x88330b2d26a10958ULL, 0x1.e253233dfcb1fp+7, 98, 113, 0, 61, 0},
    {0xd92f8ab9b93a3109ULL, 0x1.8e680bf3cb6ffp+7, 27, 36, 0, 14, 0},
    {0xbd20046fbb84339eULL, 0x1.852ee55c667b2p+7, 60, 78, 0, 30, 0},
    {0xa4738f7a19c486c3ULL, 0x1.d303a0f665fe7p+7, 111, 128, 0, 62, 0},
    {0x4b94d72c3fa66a2bULL, 0x1.c75f6fbd4170bp+7, 26, 40, 0, 19, 15},
    {0xd9b661d49bfd18e7ULL, 0x1.efff5cece8298p+7, 53, 73, 0, 29, 19},
    {0x3f48e5b947691470ULL, 0x1.56a16fb799f64p+8, 102, 116, 0, 62, 25},
    {0x2d55477a27e64c40ULL, 0x1.a81dc3dbb85c5p+7, 24, 32, 0, 11, 18},
    {0x6596d66c4192fc47ULL, 0x1.a8ba153c2a80cp+7, 65, 86, 0, 32, 20},
    {0x5d4f4cd4521d627bULL, 0x1.2fe1fcfe3a707p+8, 113, 129, 0, 64, 24},
    {0x04cbf15631169e5cULL, 0x1.b35702a88621cp+7, 26, 39, 0, 17, 0},
    {0xe929b7ead365c9a8ULL, 0x1.b89a712ddd8f2p+7, 55, 70, 0, 25, 0},
    {0x674542d06d6a1792ULL, 0x1.f7693a416e96ep+7, 119, 132, 0, 73, 0},
    {0xf24049eeea818808ULL, 0x1.9dbf714fd188ap+7, 32, 43, 0, 19, 0},
    {0x9b661678ab20ac58ULL, 0x1.c7166d0822fe8p+7, 61, 82, 0, 33, 0},
    {0x9d525cdf240552dbULL, 0x1.0bce21a157845p+8, 107, 123, 0, 64, 0},
    {0xbd20046fbb84339eULL, 0x1.852ee55c667b2p+7, 60, 78, 0, 30, 0},
};

}  // namespace

TEST(ShardPin, MatchesRecordedFingerprint) {
  std::vector<ShardFingerprint> got;
  const std::optional<rs::CommModel> no_comm;
  const std::optional<rs::FaultModel> no_faults;
  for (int config = 0; config < 3; ++config) {
    for (const std::uint64_t seed : {1ull, 5ull}) {
      for (const int k : {2, 4, 8}) {
        rc::ShardScheduler::Options opts;
        opts.shards = k;
        auto sched = make_shard_mct(opts);
        got.push_back(run_fingerprint(
            *sched, seed,
            config == 2 ? std::optional(rs::CommModel::pcie_like()) : no_comm,
            config == 1 ? std::optional(pin_faults()) : no_faults));
      }
    }
  }
  // The configuration of GuardedInnersSurviveStealInterleavings.
  std::vector<std::unique_ptr<rs::Scheduler>> inners;
  for (int s = 0; s < 4; ++s) {
    inners.push_back(std::make_unique<rx::GuardedScheduler>(
        std::make_unique<rx::MctScheduler>()));
  }
  rc::ShardScheduler::Options opts;
  opts.shards = 4;
  rc::ShardScheduler guarded(std::move(inners), opts, "guarded:mct");
  got.push_back(run_fingerprint(guarded, 5, no_comm, no_faults));

  const std::size_t expected = std::size(kShardPin);
  ASSERT_EQ(got.size(), expected) << [&] {
    std::string all;
    for (const auto& f : got) all += "    " + format_fingerprint(f) + ",\n";
    return all;
  }();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == kShardPin[i])
        << "run " << i << ": got " << format_fingerprint(got[i])
        << ", recorded " << format_fingerprint(kShardPin[i]);
  }
}
