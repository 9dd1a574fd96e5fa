#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>
#include <sstream>
#include <string>

#include "core/apps.hpp"
#include "dag/cholesky.hpp"
#include "rl/env.hpp"
#include "rl/policy_net.hpp"
#include "rl/readys_scheduler.hpp"
#include "sched/heft.hpp"
#include "sim/simulator.hpp"
#include "tensor/autograd.hpp"
#include "util/rng.hpp"

namespace rc = readys::core;
namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rr = readys::rl;

namespace {

rr::SchedulingEnv make_env(double sigma = 0.0, int window = 1,
                           std::uint64_t seed = 1, int tiles = 4) {
  static const rs::Platform platform = rs::Platform::hybrid(2, 2);
  static const rs::CostModel costs = rs::CostModel::cholesky();
  // deque: stable addresses, envs hold references into it
  static std::deque<rd::TaskGraph> graphs;
  graphs.push_back(rd::cholesky_graph(tiles));
  return rr::SchedulingEnv(graphs.back(), platform, costs,
                           {sigma, window, seed});
}

/// Always schedules the first ready task (never idles).
double run_first_fit(rr::SchedulingEnv& env, std::uint64_t seed) {
  env.reset(seed);
  bool done = env.done();
  double reward = 0.0;
  while (!done) {
    const auto result = env.step(0);
    reward += result.reward;
    done = result.done;
  }
  EXPECT_NEAR(reward,
              (env.heft_reference() - env.makespan()) / env.heft_reference(),
              1e-12);
  return env.makespan();
}

}  // namespace

TEST(Env, FirstObservationMatchesInitialState) {
  auto env = make_env();
  const auto& obs = env.observation();
  EXPECT_EQ(obs.ready_tasks.size(), 1u);
  // Three other idle resources could still take the task, so declining
  // here is safe and ∅ must be offered.
  EXPECT_TRUE(obs.allow_idle);
  EXPECT_FALSE(env.done());
  EXPECT_GT(env.heft_reference(), 0.0);
}

TEST(Env, IdleMaskedOnLastCandidateWhenNothingRuns) {
  // Single-resource platform: the first decision cannot be declined
  // (nothing is running and no other resource exists) -> ∅ masked.
  static const auto graph = rd::cholesky_graph(3);
  const rs::Platform platform = rs::Platform::cpus(1);
  const rs::CostModel costs = rs::CostModel::cholesky();
  rr::SchedulingEnv env(graph, platform, costs, {0.0, 1, 1});
  EXPECT_FALSE(env.observation().allow_idle);
}

TEST(Env, DecliningEveryProcessorForcesTheLastOne) {
  auto env = make_env();
  env.reset(1);
  // Keep declining: with 4 idle resources and nothing running, the ∅
  // action must disappear on the last candidate, forcing progress.
  int declines = 0;
  while (env.observation().allow_idle && !env.engine().any_running()) {
    env.step(env.observation().idle_action());
    ++declines;
    ASSERT_LT(declines, 4);
  }
  EXPECT_FALSE(env.observation().allow_idle);
  env.step(0);  // forced placement
  EXPECT_GE(env.engine().num_started(), 1u);
}

TEST(Env, EpisodeTerminatesAndExecutesEveryTask) {
  auto env = make_env();
  run_first_fit(env, 3);
  EXPECT_TRUE(env.done());
  EXPECT_EQ(env.engine().trace().size(), 20u);  // Cholesky T=4
  EXPECT_EQ(env.engine().trace().validate(env.engine().graph(),
                                          env.engine().platform()),
            "");
}

TEST(Env, TerminalRewardSignMatchesHeftComparison) {
  auto env = make_env();
  const double mk = run_first_fit(env, 3);
  const double expected_reward =
      (env.heft_reference() - mk) / env.heft_reference();
  // Whatever the policy quality, reward must be < 1 and finite.
  EXPECT_LT(expected_reward, 1.0);
  EXPECT_TRUE(std::isfinite(expected_reward));
}

TEST(Env, DeterministicUnderSameSeed) {
  auto env = make_env(0.4);
  const double m1 = run_first_fit(env, 5);
  const double m2 = run_first_fit(env, 5);
  EXPECT_DOUBLE_EQ(m1, m2);
  const double m3 = run_first_fit(env, 6);
  EXPECT_NE(m1, m3);
}

TEST(Env, IdleActionParksProcessorWithoutDeadlock) {
  auto env = make_env();
  env.reset(1);
  // Keep answering ∅ whenever allowed: the episode must still finish
  // because ∅ is masked on the last safe candidate and completions
  // re-open parked processors.
  bool done = env.done();
  int idles = 0;
  while (!done) {
    const auto& obs = env.observation();
    std::size_t action = 0;
    if (obs.allow_idle && idles < 100) {
      action = obs.idle_action();
      ++idles;
    }
    done = env.step(action).done;
  }
  EXPECT_TRUE(done);
  EXPECT_GT(idles, 0);
  EXPECT_EQ(env.engine().trace().validate(env.engine().graph(),
                                          env.engine().platform()),
            "");
}

TEST(Env, InvalidActionIndexThrows) {
  auto env = make_env();
  env.reset(1);
  EXPECT_THROW(env.step(env.observation().num_actions()), std::out_of_range);
}

TEST(Env, SteppingAfterDoneThrows) {
  auto env = make_env();
  run_first_fit(env, 1);
  EXPECT_THROW(env.step(0), std::logic_error);
}

TEST(Env, HeftReferenceMatchesStandalone) {
  const auto graph = rd::cholesky_graph(6);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();
  rr::SchedulingEnv env(graph, platform, costs, {0.0, 1, 1});
  EXPECT_DOUBLE_EQ(
      env.heft_reference(),
      readys::sched::heft_expected_makespan(graph, platform, costs));
}

TEST(Env, RandomPolicyProducesValidSchedulesUnderNoise) {
  readys::util::Rng rng(9);
  auto env = make_env(0.6, 2, 1, 5);
  for (int episode = 0; episode < 5; ++episode) {
    env.reset(static_cast<std::uint64_t>(episode));
    bool done = env.done();
    while (!done) {
      const auto& obs = env.observation();
      done = env.step(rng.uniform_index(obs.num_actions())).done;
    }
    EXPECT_EQ(env.engine().trace().validate(env.engine().graph(),
                                            env.engine().platform()),
              "")
        << "episode " << episode;
  }
}

TEST(Env, DeterministicOfferPicksLowestIdleResource) {
  static const auto graph = rd::cholesky_graph(4);
  const rs::Platform platform = rs::Platform::hybrid(2, 2);
  const rs::CostModel costs = rs::CostModel::cholesky();
  rr::SchedulingEnv env(graph, platform, costs,
                        {0.0, 1, 1, /*random_offer=*/false});
  EXPECT_EQ(env.observation().current_resource, 0);
  env.step(env.observation().idle_action());  // decline CPU 0
  EXPECT_EQ(env.observation().current_resource, 1);
}

TEST(Env, RandomOfferVariesWithSeed) {
  static const auto graph = rd::cholesky_graph(4);
  const rs::Platform platform = rs::Platform::hybrid(2, 2);
  const rs::CostModel costs = rs::CostModel::cholesky();
  rr::SchedulingEnv env(graph, platform, costs,
                        {0.0, 1, 1, /*random_offer=*/true});
  std::set<int> offered;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    env.reset(seed);
    offered.insert(env.observation().current_resource);
  }
  EXPECT_GT(offered.size(), 1u);  // the draw actually varies
}

TEST(Env, DecisionCountAtLeastTaskCount) {
  auto env = make_env();
  run_first_fit(env, 2);
  EXPECT_GE(env.decisions_this_episode(), 20u);
}

// --- EnvMatchesScheduler ---------------------------------------------------
// The training env and the deployed ReadysScheduler are two drivers of
// one MDP. A greedy policy run through each must produce the same
// schedule: same makespan and same trace, entry for entry, over a grid
// of sizes, windows, weights, noise, seeds and fault injection, with
// deterministic and with random offers.

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

rs::FaultModel grid_faults() {
  rs::FaultModel f;
  f.outage_rate = 0.002;
  f.mean_downtime = 50.0;
  f.slowdown_rate = 0.003;
  f.mean_slowdown = 30.0;
  f.slowdown_factor = 2.0;
  f.task_failure_prob = 0.05;
  return f;
}

/// Path A: the env stepped by the greedy f64 policy (first maximum).
std::pair<double, std::uint64_t> run_env(const rr::PolicyNet& net,
                                         rr::SchedulingEnv& env) {
  readys::tensor::NoGradGuard no_grad;
  while (!env.done()) {
    const rr::PolicyNet::Output out = net.forward(env.observation());
    const readys::tensor::Tensor& p = out.probs.value();
    std::size_t a = 0;
    for (std::size_t i = 1; i < p.size(); ++i) {
      if (p[i] > p[a]) a = i;
    }
    env.step(a);
  }
  return {env.makespan(), trace_hash(env.engine().trace())};
}

class EnvMatchesScheduler : public ::testing::TestWithParam<rc::App> {
 protected:
  /// Runs the whole grid for one offer mode; every case must agree.
  void run_grid(bool random_offer) {
    const rc::App app = GetParam();
    const rs::Platform platform = rs::Platform::hybrid(2, 2);
    const rs::CostModel costs = rc::make_costs(app);
    int cases = 0;
    int mismatches = 0;
    std::string first;
    for (int tiles : {3, 4, 6}) {
      const rd::TaskGraph graph = rc::make_graph(app, tiles);
      for (int window = 0; window <= 2; ++window) {
        for (std::uint64_t wseed = 1; wseed <= 3; ++wseed) {
          rr::AgentConfig agent;
          agent.hidden = 16;
          agent.gcn_layers = 2;
          agent.window = window;
          agent.seed = wseed;
          const rr::PolicyNet net(
              rr::StateEncoder::node_feature_width(graph.num_kernel_types()),
              rr::StateEncoder::kResourceFeatureWidth, agent);
          for (double sigma : {0.0, 0.3}) {
            for (bool faulty : {false, true}) {
              const rs::FaultModel faults =
                  faulty ? grid_faults() : rs::FaultModel::none();
              for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                rr::SchedulingEnv env(graph, platform, costs,
                                      {sigma, window, seed, random_offer,
                                       faults});
                const auto [env_mk, env_hash] = run_env(net, env);

                rr::ReadysScheduler sched(
                    net, window,
                    {.greedy = true, .seed = seed,
                     .random_offer = random_offer});
                rs::Simulator sim(graph, platform, costs,
                                  {.sigma = sigma, .seed = seed,
                                   .faults = faults});
                const rs::SimResult r = sim.run(sched);

                ++cases;
                if (r.makespan != env_mk || trace_hash(r.trace) != env_hash) {
                  if (mismatches++ == 0) {
                    std::ostringstream os;
                    os << "T=" << tiles << " window=" << window
                       << " weights=" << wseed << " sigma=" << sigma
                       << " faults=" << faulty << " seed=" << seed
                       << ": env makespan " << env_mk << ", scheduler "
                       << r.makespan;
                    first = os.str();
                  }
                }
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(cases, 432);
    EXPECT_EQ(mismatches, 0) << "first mismatch: " << first;
  }
};

}  // namespace

TEST_P(EnvMatchesScheduler, DeterministicOffers) { run_grid(false); }
TEST_P(EnvMatchesScheduler, RandomOffers) { run_grid(true); }

INSTANTIATE_TEST_SUITE_P(Apps, EnvMatchesScheduler,
                         ::testing::Values(rc::App::kCholesky, rc::App::kLu,
                                           rc::App::kQr),
                         [](const auto& info) {
                           return rc::app_name(info.param);
                         });
