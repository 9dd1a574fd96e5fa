#include <gtest/gtest.h>

#include "dag/cholesky.hpp"
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
  cfg.seed = 5;
  return cfg;
}

}  // namespace

TEST(Ppo, TrainingRunsAndReports) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::PpoTrainer trainer(net, cfg, {.rollout_episodes = 4, .epochs = 2});
  rr::VecEnv envs(graph, platform, costs, {0.0, cfg.window, 1}, 1);
  const auto report = trainer.train(envs, {.episodes = 10});
  EXPECT_EQ(report.episode_rewards.size(), 10u);
  EXPECT_EQ(report.episode_makespans.size(), 10u);
  EXPECT_GE(report.updates, 2u);  // ceil(10 / 4) rounds
  EXPECT_GT(report.best_makespan, 0.0);
}

TEST(Ppo, TrainingChangesParameters) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  std::vector<readys::tensor::Tensor> before;
  for (const auto& p : net.parameters()) before.push_back(p.value());
  rr::PpoTrainer trainer(net, cfg);
  rr::VecEnv envs(graph, platform, costs, {0.0, cfg.window, 1}, 1);
  trainer.train(envs, {.episodes = 8});
  bool changed = false;
  const auto params = net.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!(params[i].value() == before[i])) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(Ppo, EvaluateGreedyIsDeterministic) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  const auto a = rr::evaluate_policy(net, cfg.window, graph, platform, costs,
                                     0.0, 3, 7, true);
  const auto b = rr::evaluate_policy(net, cfg.window, graph, platform, costs,
                                     0.0, 3, 7, true);
  EXPECT_EQ(a, b);
}

TEST(Ppo, LearnsTinyInstance) {
  // Same smoke test as A2C: Cholesky T=2 on 1 CPU + 1 GPU should reach
  // HEFT level (all tasks on the GPU) within a modest budget.
  const auto graph = rd::cholesky_graph(2);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  auto cfg = tiny_config();
  cfg.entropy_beta = 1e-3;
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4), 8, cfg);
  rr::PpoTrainer trainer(net, cfg, {.rollout_episodes = 8, .epochs = 4});
  rr::VecEnv envs(graph, platform, costs, {0.0, cfg.window, 1}, 1);
  rr::SchedulingEnv& env = envs.env(0);
  trainer.train(envs, {.episodes = 250});
  const auto makespans = rr::evaluate_policy(net, cfg.window, graph, platform,
                                             costs, 0.0, 5, 1000, true);
  EXPECT_LE(readys::util::mean(makespans), env.heft_reference() * 1.05);
}

TEST(Ppo, SharesRewardShapingWithA2c) {
  auto cfg = tiny_config();
  EXPECT_DOUBLE_EQ(rr::shape_reward(cfg, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(rr::shape_reward(cfg, -1.0), -0.5);
  cfg.squash_reward = false;
  cfg.reward_clip = 0.0;
  EXPECT_DOUBLE_EQ(rr::shape_reward(cfg, -3.25), -3.25);
}
