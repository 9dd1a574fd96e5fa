// The batched-rollout contract (docs/api.md): the vectorized pieces —
// VecEnv, PolicyNet::forward_batched, the training loop behind
// train(VecEnv&), the scheduler registry, and RunConfig — must match
// the per-graph paths where the API promises it (batched forward vs
// per-graph loop), stay deterministic everywhere, and keep the training
// numerics pinned across commits (TrainingPin).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/run_config.hpp"
#include "dag/cholesky.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "rl/a2c.hpp"
#include "rl/ppo.hpp"
#include "rl/readys_scheduler.hpp"
#include "rl/vec_env.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rr = readys::rl;
namespace rc = readys::core;
namespace rt = readys::tensor;

namespace {

rr::AgentConfig tiny_config() {
  rr::AgentConfig cfg;
  cfg.hidden = 16;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.unroll = 0;  // whole-episode returns
  cfg.lr = 3e-3;
  cfg.seed = 5;
  return cfg;
}

/// Observations from different seeds/depths of the same instance, so a
/// batch mixes window sizes, ready counts, and allow_idle states.
std::vector<rr::Observation> diverse_observations(
    const rd::TaskGraph& graph, const rs::Platform& platform,
    const rs::CostModel& costs, std::size_t n) {
  std::vector<rr::Observation> out;
  for (std::size_t g = 0; g < n; ++g) {
    rr::SchedulingEnv env(graph, platform, costs,
                          {0.2, 1, 10 + g, /*random_offer=*/true});
    env.reset();
    for (std::size_t s = 0; s < g; ++s) {
      if (env.done()) break;
      env.step(g % env.observation().num_actions());
    }
    out.push_back(env.observation());
  }
  return out;
}

void expect_tensors_near(const rt::Tensor& a, const rt::Tensor& b,
                         double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a.at(r, c), b.at(r, c), tol) << "at (" << r << "," << c
                                               << ")";
    }
  }
}

void expect_reports_equal(const rr::TrainReport& a, const rr::TrainReport& b) {
  ASSERT_EQ(a.episode_rewards.size(), b.episode_rewards.size());
  for (std::size_t i = 0; i < a.episode_rewards.size(); ++i) {
    EXPECT_EQ(a.episode_rewards[i], b.episode_rewards[i]) << "episode " << i;
    EXPECT_EQ(a.episode_makespans[i], b.episode_makespans[i])
        << "episode " << i;
  }
  EXPECT_EQ(a.best_makespan, b.best_makespan);
  EXPECT_EQ(a.final_mean_reward, b.final_mean_reward);
  EXPECT_EQ(a.updates, b.updates);
}

void expect_params_equal(const rr::PolicyNet& a, const rr::PolicyNet& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].value() == pb[i].value()) << "parameter " << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Batched forward parity
// ---------------------------------------------------------------------

TEST(VecEnv, BatchedForwardMatchesPerGraph) {
  const auto graph = rd::cholesky_graph(4);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();
  const auto obs = diverse_observations(graph, platform, costs, 4);

  auto cfg = tiny_config();
  cfg.gcn_layers = 2;  // exercise the stacked block-diagonal trunk
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4),
                    rr::StateEncoder::kResourceFeatureWidth, cfg);

  std::vector<const rr::Observation*> batch;
  for (const auto& o : obs) batch.push_back(&o);
  const auto outs = net.forward_batched(batch);
  ASSERT_EQ(outs.size(), obs.size());

  for (std::size_t g = 0; g < obs.size(); ++g) {
    const auto ref = net.forward(obs[g]);
    expect_tensors_near(outs[g].probs.value(), ref.probs.value(), 1e-10);
    expect_tensors_near(outs[g].log_probs.value(), ref.log_probs.value(),
                        1e-10);
    expect_tensors_near(outs[g].value.value(), ref.value.value(), 1e-10);
    EXPECT_EQ(outs[g].probs.value().cols(), obs[g].num_actions());
  }
}

TEST(VecEnv, BatchedForwardGradientsMatchPerGraph) {
  const auto graph = rd::cholesky_graph(4);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();
  const auto obs = diverse_observations(graph, platform, costs, 4);

  const auto cfg = tiny_config();
  // Same config seed => identical initial weights in both nets.
  rr::PolicyNet net_batched(rr::StateEncoder::node_feature_width(4),
                            rr::StateEncoder::kResourceFeatureWidth, cfg);
  rr::PolicyNet net_loop(rr::StateEncoder::node_feature_width(4),
                         rr::StateEncoder::kResourceFeatureWidth, cfg);
  expect_params_equal(net_batched, net_loop);

  // Identical scalar loss built from both paths:
  //   sum_g log pi_g(a=0) + V_g(s).
  auto loss_of = [](const rr::PolicyNet::Output& out) {
    return rt::add(rt::pick(out.log_probs, 0, 0), out.value);
  };

  std::vector<const rr::Observation*> batch;
  for (const auto& o : obs) batch.push_back(&o);
  const auto outs = net_batched.forward_batched(batch);
  rt::Var loss_b = loss_of(outs[0]);
  for (std::size_t g = 1; g < outs.size(); ++g) {
    loss_b = rt::add(loss_b, loss_of(outs[g]));
  }
  loss_b.backward();

  rt::Var loss_l = loss_of(net_loop.forward(obs[0]));
  for (std::size_t g = 1; g < obs.size(); ++g) {
    loss_l = rt::add(loss_l, loss_of(net_loop.forward(obs[g])));
  }
  loss_l.backward();

  EXPECT_NEAR(loss_b.value().item(), loss_l.value().item(), 1e-10);
  const auto pb = net_batched.parameters();
  const auto pl = net_loop.parameters();
  ASSERT_EQ(pb.size(), pl.size());
  for (std::size_t i = 0; i < pb.size(); ++i) {
    expect_tensors_near(pb[i].grad(), pl[i].grad(), 1e-10);
  }
}

// ---------------------------------------------------------------------
// VecEnv lifecycle
// ---------------------------------------------------------------------

TEST(VecEnv, ConstructionValidatesInput) {
  EXPECT_THROW(rr::VecEnv(std::vector<std::unique_ptr<rr::SchedulingEnv>>{}),
               std::invalid_argument);

  const auto graph = rd::cholesky_graph(2);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  rr::VecEnv envs(graph, platform, costs, {0.0, 1, 7}, 3);
  EXPECT_EQ(envs.size(), 3u);
  // Seed-count mismatch on the batch reset.
  EXPECT_THROW(envs.reset({1, 2}), std::invalid_argument);
}

TEST(VecEnv, StepAlignsWithIdsAndFinishesEpisodes) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  rr::VecEnv envs(graph, platform, costs, {0.0, 1, 7}, 2);
  envs.reset({11, 12});

  std::vector<std::size_t> active{0, 1};
  int guard = 0;
  while (!active.empty() && ++guard < 1000) {
    const auto obs = envs.observations(active);
    ASSERT_EQ(obs.size(), active.size());
    std::vector<std::size_t> actions(active.size(), 0);
    const auto results = envs.step(active, actions);
    ASSERT_EQ(results.size(), active.size());
    std::vector<std::size_t> next;
    for (std::size_t k = 0; k < active.size(); ++k) {
      if (!results[k].done) next.push_back(active[k]);
    }
    active = std::move(next);
  }
  EXPECT_TRUE(active.empty());
  EXPECT_GT(envs.env(0).makespan(), 0.0);
  EXPECT_GT(envs.env(1).makespan(), 0.0);
}

TEST(VecEnv, ResetReturnsInitialObservationAndOldSequenceWorks) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  rr::SchedulingEnv env(graph, platform, costs,
                        {0.2, 1, 3, /*random_offer=*/true});

  // New form: reset() returns the first observation...
  const rr::Observation& first = env.reset();
  EXPECT_GE(first.num_actions(), 1u);
  // ...which is the very object observation() refers to (old two-call
  // sequence unchanged).
  EXPECT_EQ(&first, &env.observation());

  const rt::Tensor features = first.features;
  const rt::Tensor resources = first.resource_state;

  // Explicit seed == configured seed replays the same start state.
  const rr::Observation& replay = env.reset(3);
  EXPECT_TRUE(replay.features == features);
  EXPECT_TRUE(replay.resource_state == resources);

  // A detour through another seed does not stick: argument-less reset()
  // returns to the configured seed.
  env.reset(12345);
  const rr::Observation& back = env.reset();
  EXPECT_TRUE(back.features == features);
  EXPECT_TRUE(back.resource_state == resources);
}

// ---------------------------------------------------------------------
// Multi-env determinism: pooled and serial stepping agree exactly
// ---------------------------------------------------------------------

TEST(VecEnv, FourEnvTrainingIsReplayDeterministic) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  const auto cfg = tiny_config();
  const rr::SchedulingEnv::Config env_cfg{0.1, cfg.window, 9};
  rr::TrainOptions opts;
  opts.episodes = 8;
  opts.sigma = 0.1;
  opts.seed = 5;

  auto run = [&](readys::util::ThreadPool* pool) {
    auto net = std::make_unique<rr::PolicyNet>(
        rr::StateEncoder::node_feature_width(4),
        rr::StateEncoder::kResourceFeatureWidth, cfg);
    rr::A2CTrainer trainer(*net, cfg);
    rr::VecEnv envs(graph, platform, costs, env_cfg, 4, pool);
    auto report = trainer.train(envs, opts);
    return std::make_pair(std::move(net), std::move(report));
  };

  readys::util::ThreadPool pool;
  const auto [net_pooled, report_pooled] = run(&pool);
  const auto [net_serial, report_serial] = run(nullptr);

  expect_reports_equal(report_pooled, report_serial);
  expect_params_equal(*net_pooled, *net_serial);
  EXPECT_EQ(report_pooled.episode_rewards.size(), 8u);
}

// ---------------------------------------------------------------------
// Update cadence: the multi-env reward-collapse regression (the vec
// trainer used to apply ONE update per width-N round, an 8x cut in
// gradient steps at N = 8 that tanked final reward from -0.49 to -6.5;
// see BENCH_train_quality.json)
// ---------------------------------------------------------------------

namespace {

rr::TrainReport train_a2c_vec(std::size_t width, int episodes,
                              int unroll = 0) {
  const auto graph = rd::cholesky_graph(4);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  cfg.unroll = unroll;
  const rr::SchedulingEnv::Config env_cfg{0.1, cfg.window, 9};
  rr::TrainOptions opts;
  opts.episodes = episodes;
  opts.sigma = 0.1;
  opts.seed = 21;
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4),
                    rr::StateEncoder::kResourceFeatureWidth, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::VecEnv envs(graph, platform, costs, env_cfg, width);
  return trainer.train(envs, opts);
}

}  // namespace

TEST(VecCadence, UpdateCountMatchesEpisodesAtAnyWidth) {
  // One gradient step per episode, exactly like width 1, at any width.
  EXPECT_EQ(train_a2c_vec(4, 16).updates, 16u);
  EXPECT_EQ(train_a2c_vec(8, 16).updates, 16u);
}

TEST(VecCadence, UnrollSplitsEachEpisodeIntoSegmentUpdates) {
  // unroll > 0 works at any width: each finished episode is split into
  // segments of at most `unroll` decisions, one update each. The
  // episodes' decision counts come from the telemetry episode rows.
  const auto metrics =
      (std::filesystem::temp_directory_path() / "readys-unroll.jsonl")
          .string();
  readys::obs::TelemetryConfig tcfg;
  tcfg.metrics_path = metrics;
  ASSERT_TRUE(readys::obs::install(tcfg));
  const int unroll = 7;
  const auto report = train_a2c_vec(2, 6, unroll);
  readys::obs::shutdown();

  std::ifstream in(metrics);
  std::string line;
  std::size_t rows = 0;
  std::size_t expected_updates = 0;
  const std::string key = "\"decisions\":";
  while (std::getline(in, line)) {
    if (line.find("\"row\":\"episode\"") == std::string::npos) continue;
    EXPECT_NE(line.find("\"envs\":2"), std::string::npos) << line;
    const std::size_t at = line.find(key);
    ASSERT_NE(at, std::string::npos) << line;
    const std::size_t steps = std::stoul(line.substr(at + key.size()));
    expected_updates += (steps + unroll - 1) / unroll;
    ++rows;
  }
  std::filesystem::remove(metrics);
  EXPECT_EQ(rows, 6u);
  EXPECT_EQ(report.skipped_updates, 0u);
  EXPECT_EQ(report.updates, expected_updates);
  EXPECT_GT(report.updates, 6u);  // the split really happened
}

TEST(VecCadence, Width4And8FinalRewardTracksSequential) {
  const int episodes = 96;
  const auto seq = train_a2c_vec(1, episodes);
  const auto vec4 = train_a2c_vec(4, episodes);
  const auto vec8 = train_a2c_vec(8, episodes);
  ASSERT_EQ(seq.episode_rewards.size(), static_cast<std::size_t>(episodes));
  // Same number of Adam steps => same learning budget; the final reward
  // must land in the width-1 run's neighborhood, not an order of
  // magnitude below it. The band is deliberately loose (trajectories
  // differ, these are stochastic runs) — the collapse this guards
  // against was a 10x gap, not a 50% one.
  const double floor = seq.final_mean_reward -
                       (0.75 * std::fabs(seq.final_mean_reward) + 0.25);
  EXPECT_GT(vec4.final_mean_reward, floor)
      << "vec4 " << vec4.final_mean_reward << " vs width 1 "
      << seq.final_mean_reward;
  EXPECT_GT(vec8.final_mean_reward, floor)
      << "vec8 " << vec8.final_mean_reward << " vs width 1 "
      << seq.final_mean_reward;
}

// ---------------------------------------------------------------------
// Async actor–learner
// ---------------------------------------------------------------------

namespace {

struct AsyncRun {
  rr::TrainReport report;
  std::unique_ptr<rr::PolicyNet> net;
};

AsyncRun train_a2c_async(std::size_t width, int episodes, int actors) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  const auto cfg = tiny_config();
  const rr::SchedulingEnv::Config env_cfg{0.1, cfg.window, 9};
  rr::TrainOptions opts;
  opts.episodes = episodes;
  opts.sigma = 0.1;
  opts.seed = 21;
  opts.async = true;
  opts.async_actors = actors;
  opts.async_batch = 1;
  AsyncRun run;
  run.net = std::make_unique<rr::PolicyNet>(
      rr::StateEncoder::node_feature_width(4),
      rr::StateEncoder::kResourceFeatureWidth, cfg);
  rr::A2CTrainer trainer(*run.net, cfg);
  rr::VecEnv envs(graph, platform, costs, env_cfg, width);
  run.report = trainer.train(envs, opts);
  return run;
}

}  // namespace

TEST(AsyncTrain, StrictModeIsRunToRunDeterministic) {
  // Two independent runs with multiple actor threads: identical episode
  // streams, rewards, and final weights. (Actor threads race for episode
  // claims, but train() releases only the episodes it is about to
  // learn from, parking them during updates, and sorts by index.)
  const auto a = train_a2c_async(4, 12, /*actors=*/2);
  const auto b = train_a2c_async(4, 12, /*actors=*/2);
  expect_reports_equal(a.report, b.report);
  expect_params_equal(*a.net, *b.net);
  EXPECT_EQ(a.report.episode_rewards.size(), 12u);
  EXPECT_EQ(a.report.updates, 12u);
}

// ---------------------------------------------------------------------
// Cross-commit training pin: the lockstep (width >= 2) and async paths
// are fingerprinted end to end — every episode's reward and makespan, the
// update counters, and the final weights. The constants were recorded
// before the trainers were folded into one training loop and hold in
// both -DREADYS_NATIVE_ARCH=ON and OFF builds; a mismatch means a
// refactor changed training numerics.
// ---------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t training_hash(const rr::TrainReport& report,
                            const rr::PolicyNet& net) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double r : report.episode_rewards) h = fnv1a(h, &r, sizeof(r));
  for (double m : report.episode_makespans) h = fnv1a(h, &m, sizeof(m));
  const std::uint64_t counters[] = {report.updates, report.skipped_updates};
  h = fnv1a(h, counters, sizeof(counters));
  const std::string weights = readys::nn::serialize_parameters(net);
  return fnv1a(h, weights.data(), weights.size());
}

enum class PinTrainer { kA2c, kPpo };

std::uint64_t pinned_run(PinTrainer which, bool async) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  const auto cfg = tiny_config();
  const rr::SchedulingEnv::Config env_cfg{0.1, cfg.window, 9};
  rr::TrainOptions opts;
  opts.episodes = 12;
  opts.sigma = 0.1;
  opts.seed = 21;
  opts.async = async;
  opts.async_actors = (async && which == PinTrainer::kA2c) ? 2 : 0;
  opts.async_batch = 1;
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4),
                    rr::StateEncoder::kResourceFeatureWidth, cfg);
  rr::VecEnv envs(graph, platform, costs, env_cfg, 4);
  rr::TrainReport report;
  if (which == PinTrainer::kA2c) {
    rr::A2CTrainer trainer(net, cfg);
    report = trainer.train(envs, opts);
  } else {
    rr::PpoConfig ppo;
    ppo.rollout_episodes = 4;
    ppo.minibatch = 16;
    rr::PpoTrainer trainer(net, cfg, ppo);
    report = trainer.train(envs, opts);
  }
  EXPECT_EQ(report.episode_rewards.size(), 12u);
  return training_hash(report, net);
}

}  // namespace

TEST(TrainingPin, A2cVec4MatchesRecordedFingerprint) {
  EXPECT_EQ(pinned_run(PinTrainer::kA2c, /*async=*/false),
            6341448210998224345ULL);
}

TEST(TrainingPin, PpoVec4MatchesRecordedFingerprint) {
  EXPECT_EQ(pinned_run(PinTrainer::kPpo, /*async=*/false),
            15364996581688326263ULL);
}

TEST(TrainingPin, A2cAsync4MatchesRecordedFingerprint) {
  EXPECT_EQ(pinned_run(PinTrainer::kA2c, /*async=*/true),
            8462888407090456584ULL);
}

TEST(TrainingPin, PpoAsync4MatchesRecordedFingerprint) {
  EXPECT_EQ(pinned_run(PinTrainer::kPpo, /*async=*/true),
            6757788872011778008ULL);
}

// ---------------------------------------------------------------------
// Scheduler registry
// ---------------------------------------------------------------------

TEST(SchedulerRegistry, EveryBuiltinConstructsAndSchedules) {
  const auto graph = rd::cholesky_graph(4);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();

  for (const char* name :
       {"heft", "mct", "mct-comm", "greedy", "cp", "minmin", "maxmin",
        "sufferage", "olb", "random"}) {
    EXPECT_TRUE(readys::sched::registry().contains(name)) << name;
  }

  for (const std::string& name : readys::sched::registry().names()) {
    if (name == "readys") continue;  // needs a live net; covered below
    readys::sched::SchedulerConfig cfg;
    cfg.seed = 42;
    auto sched = readys::sched::make_scheduler(name, cfg);
    ASSERT_NE(sched, nullptr) << name;
    const double mk =
        rs::simulate_makespan(graph, platform, costs, *sched, 0.0, 42);
    EXPECT_TRUE(std::isfinite(mk)) << name;
    EXPECT_GT(mk, 0.0) << name;
  }

  EXPECT_THROW(readys::sched::make_scheduler("no-such-policy"),
               std::invalid_argument);
}

TEST(SchedulerRegistry, ReadysSchedulerRegistersAndRuns) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  const auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4),
                    rr::StateEncoder::kResourceFeatureWidth, cfg);

  rr::register_readys_scheduler(net, cfg.window);
  EXPECT_TRUE(readys::sched::registry().contains("readys"));

  auto sched = readys::sched::make_scheduler("readys");
  ASSERT_NE(sched, nullptr);
  const double mk =
      rs::simulate_makespan(graph, platform, costs, *sched, 0.0, 7);
  EXPECT_TRUE(std::isfinite(mk));
  EXPECT_GT(mk, 0.0);
}

// ---------------------------------------------------------------------
// RunConfig round-trip and strictness
// ---------------------------------------------------------------------

TEST(RunConfig, JsonRoundTripIsIdentity) {
  rc::RunConfig cfg;
  cfg.app = "lu";
  cfg.tiles = 6;
  cfg.ncpu = 1;
  cfg.ngpu = 3;
  cfg.sigma = 0.25;
  cfg.random_offer = true;
  cfg.comm_tile_bytes = 7.4e6;
  cfg.comm_bandwidth = 1.2e7;
  cfg.comm_latency_ms = 0.01;
  cfg.cluster_shards = 4;
  cfg.cluster_stale_ms = 2.5;
  cfg.cluster_hb_ms = 0.5;
  cfg.cluster_parallel = 2;
  cfg.scheduler = "heft";
  cfg.trainer = "ppo";
  cfg.episodes = 77;
  cfg.num_envs = 4;
  cfg.seed = 123456789012345678ULL;  // needs exact uint64 round-trip
  cfg.checkpoint_dir = "ckpt/run A";
  cfg.checkpoint_every = 10;
  cfg.resume = true;
  cfg.divergence_patience = 5;
  cfg.agent.hidden = 32;
  cfg.agent.lr = 5e-3;
  cfg.agent.entropy_beta = 0.0125;
  cfg.agent.squash_reward = false;
  cfg.agent.seed = 9;

  const std::string json = cfg.to_json();
  const rc::RunConfig back = rc::RunConfig::from_json(json);
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.app, "lu");
  EXPECT_EQ(back.tiles, 6);
  EXPECT_EQ(back.seed, 123456789012345678ULL);
  EXPECT_EQ(back.checkpoint_dir, "ckpt/run A");
  EXPECT_EQ(back.num_envs, 4);
  EXPECT_EQ(back.agent.hidden, 32);
  EXPECT_DOUBLE_EQ(back.agent.lr, 5e-3);
  EXPECT_FALSE(back.agent.squash_reward);
  EXPECT_DOUBLE_EQ(back.comm_tile_bytes, 7.4e6);
  EXPECT_DOUBLE_EQ(back.comm_latency_ms, 0.01);
  EXPECT_EQ(back.cluster_shards, 4);
  EXPECT_DOUBLE_EQ(back.cluster_stale_ms, 2.5);
  EXPECT_EQ(back.cluster_parallel, 2);
  EXPECT_TRUE(back.has_comm());
  EXPECT_FALSE(back.make_comm().is_free());
  EXPECT_NO_THROW(back.validate());
}

TEST(RunConfig, MissingKeysKeepDefaults) {
  const rc::RunConfig defaults;
  const rc::RunConfig parsed = rc::RunConfig::from_json("{}");
  EXPECT_EQ(parsed.to_json(), defaults.to_json());

  const rc::RunConfig partial =
      rc::RunConfig::from_json("{\"tiles\": 12, \"trainer\": \"ppo\"}");
  EXPECT_EQ(partial.tiles, 12);
  EXPECT_EQ(partial.trainer, "ppo");
  EXPECT_EQ(partial.app, defaults.app);
  EXPECT_EQ(partial.agent.hidden, defaults.agent.hidden);
}

TEST(RunConfig, StrictParsingRejectsMalformedDocuments) {
  // Unknown top-level key.
  EXPECT_THROW(rc::RunConfig::from_json("{\"bogus\": 1}"),
               std::invalid_argument);
  // Unknown nested agent key.
  EXPECT_THROW(rc::RunConfig::from_json("{\"agent\": {\"bogus\": 1}}"),
               std::invalid_argument);
  // Type mismatch.
  EXPECT_THROW(rc::RunConfig::from_json("{\"tiles\": \"eight\"}"),
               std::invalid_argument);
  // Non-integral integer field.
  EXPECT_THROW(rc::RunConfig::from_json("{\"tiles\": 2.5}"),
               std::invalid_argument);
  // Unknown schema tag.
  EXPECT_THROW(rc::RunConfig::from_json("{\"config\": \"readys-run/2\"}"),
               std::invalid_argument);
  // Trailing garbage after the document.
  const std::string valid = rc::RunConfig().to_json();
  EXPECT_THROW(rc::RunConfig::from_json(valid + " x"), std::invalid_argument);
  // Plain malformed JSON.
  EXPECT_THROW(rc::RunConfig::from_json("{\"tiles\": }"),
               std::invalid_argument);

  // validate() names bad cross-field values even when the JSON is fine.
  rc::RunConfig bad;
  bad.trainer = "sarsa";
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = rc::RunConfig();
  bad.num_envs = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // Comm axis needs a positive bandwidth once tile bytes are nonzero.
  bad = rc::RunConfig();
  bad.comm_tile_bytes = 1e6;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = rc::RunConfig();
  bad.cluster_shards = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = rc::RunConfig();
  bad.cluster_hb_ms = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(RunConfig, EnvOverlayHonorsLegacyVariables) {
  ::setenv("READYS_TILES", "12", 1);
  ::setenv("READYS_NUM_ENVS", "4", 1);
  ::setenv("READYS_SIGMA", "0.4", 1);
  ::setenv("READYS_COMM_TILE_BYTES", "1000000", 1);
  ::setenv("READYS_COMM_BANDWIDTH", "2000000", 1);
  ::setenv("READYS_CLUSTER_SHARDS", "8", 1);
  ::setenv("READYS_CLUSTER_STALE_MS", "1.25", 1);
  const rc::RunConfig cfg = rc::RunConfig::from_env();
  ::unsetenv("READYS_TILES");
  ::unsetenv("READYS_NUM_ENVS");
  ::unsetenv("READYS_SIGMA");
  ::unsetenv("READYS_COMM_TILE_BYTES");
  ::unsetenv("READYS_COMM_BANDWIDTH");
  ::unsetenv("READYS_CLUSTER_SHARDS");
  ::unsetenv("READYS_CLUSTER_STALE_MS");
  EXPECT_EQ(cfg.tiles, 12);
  EXPECT_EQ(cfg.num_envs, 4);
  EXPECT_DOUBLE_EQ(cfg.sigma, 0.4);
  EXPECT_TRUE(cfg.has_comm());
  EXPECT_DOUBLE_EQ(cfg.comm_tile_bytes, 1e6);
  EXPECT_EQ(cfg.cluster_shards, 8);
  EXPECT_DOUBLE_EQ(cfg.cluster_stale_ms, 1.25);
  // Derived builders pull from the overlaid values.
  EXPECT_EQ(cfg.env_config().sigma, 0.4);
  EXPECT_EQ(cfg.train_options().episodes, cfg.episodes);
}
