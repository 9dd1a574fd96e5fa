// Exports the task graphs of the three factorizations as Graphviz DOT
// files and prints summary statistics (task/edge counts per kernel,
// depth) — handy for inspecting what the scheduler actually sees.
//
// Usage: visualize_dag [tiles] [output_dir]

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/readys.hpp"

using namespace readys;

int main(int argc, char** argv) try {
  const int tiles = argc > 1 ? util::parse_int("tiles", argv[1]) : 4;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  for (auto app : {core::App::kCholesky, core::App::kLu, core::App::kQr}) {
    const auto graph = core::make_graph(app, tiles);
    const auto path = (std::filesystem::path(out_dir) /
                       (graph.name() + ".dot"))
                          .string();
    dag::write_dot(graph, path);

    std::printf("\n%s: %zu tasks, %zu edges, depth %zu -> %s\n",
                graph.name().c_str(), graph.num_tasks(), graph.num_edges(),
                graph.depth(), path.c_str());
    util::Table table({"kernel", "count", "CPU (ms)", "GPU (ms)", "accel"});
    const auto costs = core::make_costs(app);
    const auto counts = graph.kernel_counts();
    for (int k = 0; k < graph.num_kernel_types(); ++k) {
      const double cpu = costs.expected(k, sim::ResourceType::kCpu);
      const double gpu = costs.expected(k, sim::ResourceType::kGpu);
      table.add_row({graph.kernel_name(k),
                     std::to_string(counts[static_cast<std::size_t>(k)]),
                     util::Table::num(cpu, 0), util::Table::num(gpu, 0),
                     util::Table::num(cpu / gpu, 1) + "x"});
    }
    table.print();
  }
  std::printf("\nrender with: dot -Tpng <file>.dot -o <file>.png\n");
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
