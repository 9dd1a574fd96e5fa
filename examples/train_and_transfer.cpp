// Transfer learning demo (paper §V-F): train a READYS agent on a small
// Cholesky instance, save its weights, reload them into a fresh agent and
// schedule a larger instance without retraining.
//
// Usage: train_and_transfer [train_tiles] [test_tiles] [episodes]

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/readys.hpp"

using namespace readys;

int main(int argc, char** argv) try {
  const int train_tiles =
      argc > 1 ? util::parse_int("train_tiles", argv[1]) : 4;
  const int test_tiles = argc > 2 ? util::parse_int("test_tiles", argv[2]) : 8;
  const int episodes = argc > 3 ? util::parse_int("episodes", argv[3]) : 2500;

  const auto costs = core::make_costs(core::App::kCholesky);
  const auto platform = sim::Platform::hybrid(2, 2);
  const auto train_graph = core::make_graph(core::App::kCholesky, train_tiles);
  const auto test_graph = core::make_graph(core::App::kCholesky, test_tiles);

  rl::AgentConfig cfg;
  rl::ReadysAgent teacher(train_graph.num_kernel_types(), cfg);
  std::printf("training on T=%d (%zu tasks), %d episodes...\n", train_tiles,
              train_graph.num_tasks(), episodes);
  teacher.train(train_graph, platform, costs,
                {.episodes = episodes, .sigma = 0.2});

  const auto weights =
      (std::filesystem::temp_directory_path() / "readys_transfer.txt")
          .string();
  teacher.save(weights);
  std::printf("weights saved to %s\n", weights.c_str());

  rl::ReadysAgent student(test_graph.num_kernel_types(), cfg);
  student.load(weights);
  std::filesystem::remove(weights);

  std::printf("\ntransfer to T=%d (%zu tasks) without retraining:\n",
              test_tiles, test_graph.num_tasks());
  util::Table table({"sigma", "READYS (transfer)", "HEFT", "MCT",
                     "READYS/HEFT improvement"});
  for (double sigma : {0.0, 0.2, 0.4, 0.8}) {
    const int runs = 5;
    const double readys_mk = util::mean(
        student.evaluate(test_graph, platform, costs, sigma, runs, 1234));
    const double heft_mk = util::mean(core::evaluate_makespans(
        test_graph, platform, costs, core::heft_factory(), sigma, runs,
        1234));
    const double mct_mk = util::mean(core::evaluate_makespans(
        test_graph, platform, costs, core::mct_factory(), sigma, runs, 1234));
    table.add_row({util::Table::num(sigma, 2), util::Table::num(readys_mk, 1),
                   util::Table::num(heft_mk, 1), util::Table::num(mct_mk, 1),
                   util::Table::num(heft_mk / readys_mk, 3)});
  }
  table.print();
  std::printf("\n(improvement > 1: the transferred agent beats HEFT)\n");
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
