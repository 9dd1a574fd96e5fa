// Compares every built-in scheduling heuristic (no learning involved)
// across the three factorization kernels, three platforms and a sweep of
// noise levels — a miniature of the paper's experimental grid that runs
// in seconds.
//
// Usage: compare_heuristics [tiles] [runs]

#include <cstdio>
#include <stdexcept>

#include "core/readys.hpp"

using namespace readys;

int main(int argc, char** argv) try {
  const int tiles = argc > 1 ? util::parse_int("tiles", argv[1]) : 8;
  const int runs = argc > 2 ? util::parse_int("runs", argv[2]) : 10;

  util::ThreadPool pool;
  const std::vector<std::pair<std::string, core::SchedulerFactory>> scheds{
      {"HEFT", core::heft_factory()},
      {"MCT", core::mct_factory()},
      {"GREEDY-EFT", core::greedy_eft_factory()},
      {"CP-DYN", core::critical_path_factory()},
      {"RANDOM", core::random_factory()},
  };

  for (auto app : {core::App::kCholesky, core::App::kLu, core::App::kQr}) {
    const auto graph = core::make_graph(app, tiles);
    const auto costs = core::make_costs(app);
    for (const auto& platform :
         {sim::Platform::cpus(4), sim::Platform::hybrid(2, 2),
          sim::Platform::gpus(4)}) {
      std::printf("\n=== %s T=%d (%zu tasks) on %s, %d runs/point ===\n",
                  core::app_name(app).c_str(), tiles, graph.num_tasks(),
                  platform.name().c_str(), runs);
      util::Table table(
          {"scheduler", "sigma=0", "sigma=0.25", "sigma=0.5", "sigma=1.0"});
      for (const auto& [name, factory] : scheds) {
        std::vector<std::string> row{name};
        for (double sigma : {0.0, 0.25, 0.5, 1.0}) {
          const auto mks = core::evaluate_makespans(
              graph, platform, costs, factory, sigma, runs, 77, &pool);
          row.push_back(util::Table::num(util::mean(mks), 1));
        }
        table.add_row(row);
      }
      table.print();
    }
  }
  std::printf("\n(mean makespans in ms; lower is better)\n");
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
