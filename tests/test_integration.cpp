// End-to-end integration tests: the full train -> evaluate -> compare
// pipeline the figure benches run, at smoke scale.

#include <gtest/gtest.h>

#include "core/readys.hpp"

namespace rc = readys::core;
namespace rs = readys::sim;
namespace rr = readys::rl;
namespace ru = readys::util;

namespace {

rr::AgentConfig smoke_config() {
  rr::AgentConfig cfg;
  cfg.hidden = 24;
  cfg.gcn_layers = 2;
  cfg.window = 1;
  cfg.seed = 17;
  return cfg;
}

}  // namespace

TEST(Integration, TrainedAgentBeatsRandomOnCholesky) {
  const auto graph = rc::make_graph(rc::App::kCholesky, 4);
  const auto costs = rc::make_costs(rc::App::kCholesky);
  const auto platform = rs::Platform::hybrid(2, 2);

  rr::ReadysAgent agent(4, smoke_config());
  agent.train(graph, platform, costs, {.episodes = 400, .sigma = 0.0});

  const auto readys_mk = agent.evaluate(graph, platform, costs, 0.0, 5, 500);
  const auto random_mk = rc::evaluate_makespans(
      graph, platform, costs, rc::random_factory(), 0.0, 10, 500);
  EXPECT_LT(ru::mean(readys_mk), ru::mean(random_mk));
}

TEST(Integration, AllBaselinesRunOnEveryAppAndPlatform) {
  ru::ThreadPool pool(4);
  for (auto app : {rc::App::kCholesky, rc::App::kLu, rc::App::kQr}) {
    const auto graph = rc::make_graph(app, 4);
    const auto costs = rc::make_costs(app);
    for (const auto& platform :
         {rs::Platform::cpus(4), rs::Platform::hybrid(2, 2),
          rs::Platform::gpus(4)}) {
      for (const auto& factory :
           {rc::heft_factory(), rc::mct_factory(), rc::greedy_eft_factory(),
            rc::critical_path_factory()}) {
        const auto mks = rc::evaluate_makespans(graph, platform, costs,
                                                factory, 0.25, 4, 3, &pool);
        for (double mk : mks) EXPECT_GT(mk, 0.0);
      }
    }
  }
}

TEST(Integration, HeftDegradesWithNoiseMoreThanMct) {
  // The paper's central claim at the baseline level: HEFT's *relative*
  // makespan grows with sigma while MCT stays comparatively stable.
  // We verify the ratio mct/heft decreases as sigma grows.
  const auto graph = rc::make_graph(rc::App::kCholesky, 8);
  const auto costs = rc::make_costs(rc::App::kCholesky);
  const auto platform = rs::Platform::hybrid(2, 2);
  ru::ThreadPool pool(4);
  auto ratio = [&](double sigma) {
    const auto heft = rc::evaluate_makespans(graph, platform, costs,
                                             rc::heft_factory(), sigma, 20,
                                             11, &pool);
    const auto mct = rc::evaluate_makespans(graph, platform, costs,
                                            rc::mct_factory(), sigma, 20, 11,
                                            &pool);
    return ru::mean(mct) / ru::mean(heft);
  };
  EXPECT_LT(ratio(0.8), ratio(0.0) + 0.05);
}

TEST(Integration, QuickstartSnippetCompilesAndRuns) {
  // Mirrors the README quickstart (smaller budget).
  using namespace readys;
  auto graph = core::make_graph(core::App::kCholesky, 4);
  auto costs = core::make_costs(core::App::kCholesky);
  auto platform = sim::Platform::hybrid(2, 2);

  rl::AgentConfig cfg;
  cfg.hidden = 16;
  cfg.gcn_layers = 1;
  rl::ReadysAgent agent(graph.num_kernel_types(), cfg);
  agent.train(graph, platform, costs, {.episodes = 5, .sigma = 0.2});

  rl::ReadysScheduler policy(agent.net(), agent.config().window,
                             rl::ReadysOptions{});
  const double mk =
      sim::simulate_makespan(graph, platform, costs, policy, 0.2, 42);
  EXPECT_GT(mk, 0.0);
}
