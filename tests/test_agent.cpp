#include <gtest/gtest.h>

#include <filesystem>

#include "dag/cholesky.hpp"
#include "rl/agent.hpp"
#include "rl/readys_scheduler.hpp"
#include "sim/simulator.hpp"
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
  cfg.seed = 3;
  return cfg;
}

}  // namespace

TEST(Agent, TrainEvaluateRoundTrip) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  rr::ReadysAgent agent(4, tiny_config());
  const auto report = agent.train(graph, platform, costs, {.episodes = 5});
  EXPECT_EQ(report.episode_rewards.size(), 5u);
  const auto makespans = agent.evaluate(graph, platform, costs, 0.0, 3, 7);
  EXPECT_EQ(makespans.size(), 3u);
  for (double mk : makespans) EXPECT_GT(mk, 0.0);
}

TEST(Agent, SaveLoadPreservesPolicy) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  rr::ReadysAgent a(4, tiny_config());
  a.train(graph, platform, costs, {.episodes = 3});
  const auto path =
      (std::filesystem::temp_directory_path() / "readys_agent.txt").string();
  a.save(path);

  auto cfg2 = tiny_config();
  cfg2.seed = 999;  // different init, must be overwritten by load
  rr::ReadysAgent b(4, cfg2);
  b.load(path);
  std::filesystem::remove(path);

  const auto ma = a.evaluate(graph, platform, costs, 0.0, 3, 11);
  const auto mb = b.evaluate(graph, platform, costs, 0.0, 3, 11);
  EXPECT_EQ(ma, mb);
}

TEST(Agent, TransfersAcrossProblemSizes) {
  // Train on T=3, run on T=5 — must produce a valid schedule without any
  // retraining (the paper's transfer-learning setting).
  const auto small = rd::cholesky_graph(3);
  const auto big = rd::cholesky_graph(5);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  rr::ReadysAgent agent(4, tiny_config());
  agent.train(small, platform, costs, {.episodes = 5});
  const auto makespans = agent.evaluate(big, platform, costs, 0.2, 2, 3);
  EXPECT_EQ(makespans.size(), 2u);
  for (double mk : makespans) EXPECT_GT(mk, 0.0);
}

TEST(ReadysScheduler, RunsUnderSimulatorWithValidTrace) {
  const auto graph = rd::cholesky_graph(4);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();
  rr::ReadysAgent agent(4, tiny_config());
  for (double sigma : {0.0, 0.5}) {
    rr::ReadysScheduler sched(agent.net(), agent.config().window,
                              {.greedy = true, .seed = 4});
    rs::Simulator sim(graph, platform, costs, {sigma, 21});
    const auto result = sim.run(sched);
    EXPECT_EQ(result.trace.validate(graph, platform), "") << sigma;
    EXPECT_EQ(result.trace.size(), graph.num_tasks());
  }
}

TEST(ReadysScheduler, GreedyIsSeedIndependentDeterministicPolicy) {
  const auto graph = rd::cholesky_graph(4);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();
  rr::ReadysAgent agent(4, tiny_config());
  rr::ReadysScheduler s1(agent.net(), 1, {.greedy = true, .seed = 5});
  rr::ReadysScheduler s2(agent.net(), 1, {.greedy = true, .seed = 5});
  const double m1 = rs::simulate_makespan(graph, platform, costs, s1, 0.0, 9);
  const double m2 = rs::simulate_makespan(graph, platform, costs, s2, 0.0, 9);
  EXPECT_DOUBLE_EQ(m1, m2);
}

TEST(ReadysScheduler, SamplingModeStillValid) {
  const auto graph = rd::cholesky_graph(4);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();
  rr::ReadysAgent agent(4, tiny_config());
  rr::ReadysScheduler sched(agent.net(), 1, {.greedy = false, .seed = 6});
  rs::Simulator sim(graph, platform, costs, {0.3, 13});
  const auto result = sim.run(sched);
  EXPECT_EQ(result.trace.validate(graph, platform), "");
}
