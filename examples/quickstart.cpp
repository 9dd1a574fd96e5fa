// Quickstart: train a READYS agent on a tiled Cholesky DAG for a small
// hybrid CPU/GPU node, then compare it against HEFT and MCT under noise.
//
// Usage: quickstart [episodes] [sigma]
//   episodes  training episodes (default 1500)
//   sigma     duration-noise level for the final comparison (default 0.25)

#include <cstdio>
#include <stdexcept>

#include "core/readys.hpp"

using namespace readys;

int main(int argc, char** argv) try {
  const int episodes = argc > 1 ? util::parse_int("episodes", argv[1]) : 1500;
  const double sigma = argc > 2 ? util::parse_double("sigma", argv[2]) : 0.25;

  // 1. The instance: Cholesky with 6x6 tiles (56 tasks) on 2 CPUs + 2 GPUs.
  const auto graph = core::make_graph(core::App::kCholesky, 6);
  const auto costs = core::make_costs(core::App::kCholesky);
  const auto platform = sim::Platform::hybrid(2, 2);
  std::printf("instance: %s (%zu tasks) on %s\n", graph.name().c_str(),
              graph.num_tasks(), platform.name().c_str());

  // 2. Train the agent with the paper's terminal reward (vs HEFT).
  rl::AgentConfig cfg;  // paper-style defaults: w=1, 2 GCN layers
  rl::ReadysAgent agent(graph.num_kernel_types(), cfg);
  std::printf("training for %d episodes (sigma=%.2f)...\n", episodes, sigma);
  const auto report = agent.train(
      graph, platform, costs,
      {.episodes = episodes, .sigma = sigma, .verbose = true});
  std::printf("training done: best makespan %.1f ms, final mean reward %+.3f\n",
              report.best_makespan, report.final_mean_reward);

  // 3. Compare against the baselines over 5 noise seeds.
  const int runs = 5;
  auto readys_factory = [&](std::uint64_t seed) {
    return std::make_unique<rl::ReadysScheduler>(
        agent.net(), cfg.window,
        rl::ReadysOptions{.greedy = true, .seed = seed});
  };
  util::Table table({"scheduler", "mean makespan (ms)", "vs HEFT"});
  const auto heft = util::summarize(core::evaluate_makespans(
      graph, platform, costs, core::heft_factory(), sigma, runs, 900));
  for (const auto& [name, factory] :
       std::vector<std::pair<std::string, core::SchedulerFactory>>{
           {"READYS", readys_factory},
           {"HEFT", core::heft_factory()},
           {"MCT", core::mct_factory()}}) {
    const auto s = util::summarize(core::evaluate_makespans(
        graph, platform, costs, factory, sigma, runs, 900));
    table.add_row({name, util::Table::num(s.mean, 1),
                   util::Table::num(heft.mean / s.mean, 3)});
  }
  std::printf("\nevaluation at sigma=%.2f (%d seeds):\n", sigma, runs);
  table.print();
  std::printf("\n(vs HEFT > 1 means faster than HEFT)\n");
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
