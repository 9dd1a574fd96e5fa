// Schedule visualization demo: executes HEFT and MCT on a tiled LU
// factorization, prints ASCII Gantt charts side by side and exports
// Chrome-trace JSON files viewable in chrome://tracing or Perfetto.
//
// Usage: gantt_demo [tiles] [sigma]

#include <cstdio>
#include <stdexcept>

#include "core/readys.hpp"

using namespace readys;

int main(int argc, char** argv) try {
  const int tiles = argc > 1 ? util::parse_int("tiles", argv[1]) : 6;
  const double sigma = argc > 2 ? util::parse_double("sigma", argv[2]) : 0.0;

  const auto graph = core::make_graph(core::App::kLu, tiles);
  const auto costs = core::make_costs(core::App::kLu);
  const auto platform = sim::Platform::hybrid(2, 2);
  std::printf("LU T=%d (%zu tasks) on %s, sigma=%.2f\n\n", tiles,
              graph.num_tasks(), platform.name().c_str(), sigma);

  sched::HeftScheduler heft;
  sched::MctScheduler mct;
  for (sim::Scheduler* sched :
       std::initializer_list<sim::Scheduler*>{&heft, &mct}) {
    sim::Simulator sim(graph, platform, costs, {sigma, 42});
    const auto result = sim.run(*sched);
    std::printf("== %s: makespan %.1f ms ==\n", sched->name().c_str(),
                result.makespan);
    std::fputs(
        sim::to_ascii_gantt(result.trace, graph, platform, 100).c_str(),
        stdout);
    const auto util_per_resource = result.trace.utilization(platform);
    std::printf("utilization:");
    for (double u : util_per_resource) std::printf(" %.0f%%", 100.0 * u);
    std::printf("\n");
    const std::string json_path = sched->name() + "_trace.json";
    sim::write_chrome_trace(result.trace, graph, platform, json_path);
    std::printf("chrome trace: %s (open in chrome://tracing)\n\n",
                json_path.c_str());
  }
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
