#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "dag/cholesky.hpp"
#include "rl/a2c.hpp"
#include "rl/ppo.hpp"
#include "rl/readys_scheduler.hpp"
#include "util/stats.hpp"

namespace rd = readys::dag;
namespace rs = readys::sim;
namespace rr = readys::rl;

namespace {

rr::AgentConfig tiny_config() {
  rr::AgentConfig cfg;
  cfg.hidden = 16;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.unroll = 16;
  cfg.lr = 3e-3;
  cfg.seed = 5;
  return cfg;
}

}  // namespace

TEST(A2C, TrainingRunsAndReportsEveryEpisode) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::VecEnv envs(graph, platform, costs, {0.0, cfg.window, 1}, 1);
  const auto report = trainer.train(envs, {.episodes = 8, .sigma = 0.0});
  EXPECT_EQ(report.episode_rewards.size(), 8u);
  EXPECT_EQ(report.episode_makespans.size(), 8u);
  EXPECT_GT(report.updates, 0u);
  EXPECT_GT(report.best_makespan, 0.0);
  for (double mk : report.episode_makespans) {
    EXPECT_GE(mk, report.best_makespan);
  }
}

TEST(A2C, TrainingChangesParameters) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  std::vector<readys::tensor::Tensor> before;
  for (const auto& p : net.parameters()) before.push_back(p.value());
  rr::A2CTrainer trainer(net, cfg);
  rr::VecEnv envs(graph, platform, costs, {0.0, cfg.window, 1}, 1);
  trainer.train(envs, {.episodes = 4});
  bool changed = false;
  const auto params = net.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!(params[i].value() == before[i])) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(A2C, EvaluateIsGreedyDeterministic) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  const auto a = rr::evaluate_policy(net, cfg.window, graph, platform, costs,
                                     0.0, 3, 42, /*greedy=*/true);
  const auto b = rr::evaluate_policy(net, cfg.window, graph, platform, costs,
                                     0.0, 3, 42, /*greedy=*/true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u);
}

TEST(A2C, SampledEvaluateIsIndependentOfTrainingHistory) {
  // Regression: evaluate() used to draw from the shared training stream
  // (A2C's sample_rng_, PPO's rng_), so a sampled evaluation's result
  // depended on how many actions training had consumed beforehand. A
  // zero-lr training burst advances the training RNG without moving the
  // weights; the two sampled evaluations around it must still agree
  // exactly, for both trainers.
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  cfg.lr = 0.0;
  const auto check = [&](rr::Learner& trainer, const rr::PolicyNet& net) {
    rr::VecEnv envs(graph, platform, costs, {0.1, cfg.window, 1}, 1);
    const auto before = rr::evaluate_policy(net, cfg.window, graph, platform,
                                            costs, 0.1, 4, 77, false);
    trainer.train(envs, {.episodes = 5});
    const auto after = rr::evaluate_policy(net, cfg.window, graph, platform,
                                           costs, 0.1, 4, 77, false);
    EXPECT_EQ(before, after);
  };
  rr::PolicyNet a2c_net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::A2CTrainer a2c(a2c_net, cfg);
  check(a2c, a2c_net);
  rr::PolicyNet ppo_net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::PpoTrainer ppo(ppo_net, cfg, {.rollout_episodes = 2, .epochs = 1});
  check(ppo, ppo_net);
}

TEST(Learner, TrainRejectsNonFinitePolicy) {
  // A NaN policy row must stop a rollout loudly instead of silently
  // taking the last action and leaving the divergence guard to notice.
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  for (auto& p : net.parameters()) {
    readys::tensor::Tensor& t = p.mutable_value();
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  rr::A2CTrainer trainer(net, cfg);
  rr::VecEnv envs(graph, platform, costs, {0.0, cfg.window, 1}, 1);
  EXPECT_THROW(trainer.train(envs, {.episodes = 1}), std::runtime_error);
}

TEST(A2C, RewardSquashIsMonotoneAndBounded) {
  auto cfg = tiny_config();
  cfg.squash_reward = true;
  cfg.reward_clip = 1.0;
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  double prev = -2.0;
  for (double r : {-20.0, -5.0, -1.0, -0.5, 0.0, 0.3, 0.45}) {
    const double shaped = trainer.shape_reward(r);
    EXPECT_GT(shaped, prev);   // strictly monotone below the clip
    EXPECT_GE(shaped, -1.0);   // bounded below
    EXPECT_LE(shaped, 1.0);    // clipped above
    prev = shaped;
  }
  // Large positive rewards saturate at the clip.
  EXPECT_DOUBLE_EQ(trainer.shape_reward(0.9), 1.0);
  // Identity at r = 0 (policy exactly matches HEFT).
  EXPECT_DOUBLE_EQ(trainer.shape_reward(0.0), 0.0);
  // r = -1 (mk = 2 x HEFT) -> mk_H/mk - 1 = -0.5.
  EXPECT_DOUBLE_EQ(trainer.shape_reward(-1.0), -0.5);
}

TEST(A2C, ShapeRewardRejectsNonFiniteReward) {
  // A NaN reward (e.g. a makespan ratio with a zero denominator) must
  // fail loudly before it poisons the returns of a whole episode.
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(trainer.shape_reward(nan), std::domain_error);
  EXPECT_THROW(trainer.shape_reward(inf), std::domain_error);
  EXPECT_THROW(trainer.shape_reward(-inf), std::domain_error);
}

TEST(A2C, RewardShapingCanBeDisabled) {
  auto cfg = tiny_config();
  cfg.squash_reward = false;
  cfg.reward_clip = 0.0;
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  EXPECT_DOUBLE_EQ(trainer.shape_reward(-7.5), -7.5);  // paper's raw reward
}

TEST(A2C, LearnsTinyInstanceToHeftLevel) {
  // On Cholesky T=2 (a 4-task chain) the optimal policy is easy: after a
  // modest number of episodes the agent should at least match HEFT on the
  // deterministic instance. This is the core learning smoke test.
  const auto graph = rd::cholesky_graph(2);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  cfg.entropy_beta = 1e-3;
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::A2CTrainer trainer(net, cfg);
  rr::VecEnv envs(graph, platform, costs, {0.0, cfg.window, 1}, 1);
  rr::SchedulingEnv& env = envs.env(0);
  trainer.train(envs, {.episodes = 250});
  const auto makespans = rr::evaluate_policy(net, cfg.window, graph, platform,
                                             costs, 0.0, 5, 1000, true);
  const double mean = readys::util::mean(makespans);
  EXPECT_LE(mean, env.heft_reference() * 1.05);
}
