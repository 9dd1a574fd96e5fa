// Training-throughput + quality baseline: episodes/sec AND final mean
// reward of the one training loop at VecEnv width 1, 4 and 8 (lockstep
// waves, batched no-grad forwards), on one small instance. On a single core the speedup comes from NoGrad
// inference rollouts and amortizing per-op autograd dispatch over the
// batch, not from threads — which is exactly the regime RL training
// lives in (many tiny forwards). Numbers land in
// BENCH_train_throughput.json (throughput series) and
// BENCH_train_quality.json (speed AND reward per width: multi-env runs
// must match the width-1 reward, not just outrun it).
//
//   READYS_BENCH_EPISODES  episodes per width (default 192)
//   READYS_BENCH_TILES     Cholesky tile count (default 4)
//   READYS_BENCH_SIGMA     duration noise level (default 0.3)
//   READYS_BENCH_TRAINER   a2c | ppo (default a2c)
//   READYS_HIDDEN          embedding width (default 32)
//   READYS_BENCH_SEED      env seed AND agent seed (default 1), so a
//                          sweep over it is a sweep of independent runs

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace readys;

namespace {

struct Cell {
  int num_envs = 1;
  int episodes = 0;
  std::size_t updates = 0;
  double wall_s = 0.0;
  double episodes_per_s = 0.0;
  double updates_per_s = 0.0;
  double final_mean_reward = 0.0;
};

Cell run_width(const core::RunConfig& cfg, const dag::TaskGraph& graph,
               const sim::Platform& platform, const sim::CostModel& costs,
               int num_envs) {
  using clock = std::chrono::steady_clock;
  Cell cell;
  cell.num_envs = num_envs;
  cell.episodes = cfg.episodes;

  // A fresh net per width, identical init seed: every cell trains the
  // same model on the same episode seeds.
  rl::PolicyNet net(
      rl::StateEncoder::node_feature_width(graph.num_kernel_types()),
      rl::StateEncoder::kResourceFeatureWidth, cfg.agent);
  const rl::TrainOptions opts = cfg.train_options();
  rl::TrainReport report;
  const auto t0 = clock::now();
  rl::VecEnv envs(graph, platform, costs, cfg.env_config(),
                  static_cast<std::size_t>(num_envs));
  if (cfg.trainer == "ppo") {
    rl::PpoTrainer trainer(net, cfg.agent);
    report = trainer.train(envs, opts);
  } else {
    rl::A2CTrainer trainer(net, cfg.agent);
    report = trainer.train(envs, opts);
  }
  cell.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  cell.updates = report.updates;
  cell.episodes_per_s =
      cell.wall_s > 0.0 ? static_cast<double>(cfg.episodes) / cell.wall_s : 0.0;
  cell.updates_per_s =
      cell.wall_s > 0.0 ? static_cast<double>(report.updates) / cell.wall_s
                        : 0.0;
  cell.final_mean_reward = report.final_mean_reward;
  return cell;
}

}  // namespace

int main() {
  core::RunConfig cfg;
  cfg.tiles = util::env_int("READYS_BENCH_TILES", 4);
  cfg.sigma = util::env_double("READYS_BENCH_SIGMA", 0.3);
  cfg.episodes = util::env_int("READYS_BENCH_EPISODES", 192);
  cfg.trainer = util::env_string("READYS_BENCH_TRAINER", "a2c");
  cfg.agent.hidden = util::env_int("READYS_HIDDEN", 32);
  cfg.seed = util::env_uint64("READYS_BENCH_SEED", 1);
  cfg.agent.seed = cfg.seed;
  cfg.validate();

  const auto graph = cfg.make_graph();
  const auto platform = cfg.make_platform();
  const auto costs = cfg.make_costs();

  bench::BenchRun run("train_throughput");
  run.manifest.set_raw("run_config", cfg.to_json());
  run.manifest.set("platform", platform.name());
  run.manifest.set("graph", graph.name());

  std::printf(
      "=== Training throughput + quality (%s / %s / %s, %d episodes/width, "
      "sigma=%.2f) ===\n\n",
      cfg.trainer.c_str(), graph.name().c_str(), platform.name().c_str(),
      cfg.episodes, cfg.sigma);

  std::vector<Cell> cells;
  for (const int num_envs : {1, 4, 8}) {
    cells.push_back(run_width(cfg, graph, platform, costs, num_envs));
    std::fflush(stdout);
  }

  const Cell& base = cells[0];  // width 1: one episode at a time
  const auto speedup_of = [&](const Cell& c) {
    return base.episodes_per_s > 0.0
               ? c.episodes_per_s / base.episodes_per_s
               : 0.0;
  };
  // Reward gap vs width 1 in percent of |width 1|; the acceptance bar is
  // |gap| <= 10 on the fast multi-env cells.
  const auto reward_delta_pct = [&](const Cell& c) {
    const double denom = std::fabs(base.final_mean_reward);
    return denom > 0.0
               ? 100.0 * (c.final_mean_reward - base.final_mean_reward) / denom
               : 0.0;
  };

  util::Table table({"envs", "episodes", "updates", "wall (s)",
                     "episodes/s", "speedup", "final reward", "dreward %"});
  for (const Cell& c : cells) {
    table.add_row({std::to_string(c.num_envs),
                   std::to_string(c.episodes), std::to_string(c.updates),
                   util::Table::num(c.wall_s, 2),
                   util::Table::num(c.episodes_per_s, 2),
                   util::Table::num(speedup_of(c), 2),
                   util::Table::num(c.final_mean_reward, 4),
                   util::Table::num(reward_delta_pct(c), 1)});
  }
  table.print();

  // The headline cell: the fastest multi-env width whose reward matched
  // width 1 within the +-10% acceptance band. Speed bought by degrading
  // the learned policy never headlines.
  const Cell* headline = &cells.front();
  for (const Cell& c : cells) {
    if (&c == &cells.front()) continue;
    if (std::fabs(reward_delta_pct(c)) > 10.0) continue;
    if (c.episodes_per_s > headline->episodes_per_s) headline = &c;
  }
  std::printf(
      "\nN=%d vs width 1: %.2fx episodes/s at %.1f%% reward delta\n",
      headline->num_envs, speedup_of(*headline),
      reward_delta_pct(*headline));

  const auto write_cells = [&](std::FILE* f) {
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(f,
                   "    {\"num_envs\": %d, \"episodes\": "
                   "%d, \"updates\": %zu, \"wall_s\": %.3f, "
                   "\"episodes_per_s\": %.2f, \"updates_per_s\": %.2f, "
                   "\"speedup\": %.3f, \"final_mean_reward\": %.6f, "
                   "\"reward_delta_pct\": %.2f}%s\n",
                   c.num_envs, c.episodes, c.updates,
                   c.wall_s, c.episodes_per_s, c.updates_per_s, speedup_of(c),
                   c.final_mean_reward, reward_delta_pct(c),
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  };
  const auto write_header = [&](std::FILE* f, const char* name) {
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", name);
    std::fprintf(f,
                 "  \"trainer\": \"%s\",\n  \"app\": \"%s\",\n  \"tiles\": "
                 "%d,\n  \"hidden\": %d,\n  \"sigma\": %.3f,\n"
                 "  \"episodes_per_width\": %d,\n  \"platform\": \"%s\",\n",
                 cfg.trainer.c_str(), cfg.app.c_str(), cfg.tiles,
                 cfg.agent.hidden, cfg.sigma, cfg.episodes,
                 platform.name().c_str());
  };

  const char* path = "BENCH_train_throughput.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    write_header(f, "train_throughput");
    write_cells(f);
    std::fprintf(f, "  \"speedup_n%d\": %.3f\n}\n", headline->num_envs,
                 speedup_of(*headline));
    std::fclose(f);
    std::printf("baseline written to %s\n", path);
  } else {
    std::perror(path);
    return 1;
  }
  const char* quality_path = "BENCH_train_quality.json";
  if (std::FILE* f = std::fopen(quality_path, "w")) {
    write_header(f, "train_quality");
    write_cells(f);
    std::fprintf(f,
                 "  \"headline_num_envs\": %d,\n  \"headline_speedup\": "
                 "%.3f,\n  \"headline_reward_delta_pct\": %.2f\n}\n",
                 headline->num_envs, speedup_of(*headline),
                 reward_delta_pct(*headline));
    std::fclose(f);
    std::printf("quality series written to %s\n", quality_path);
  } else {
    std::perror(quality_path);
    return 1;
  }
  run.finish(path);
  return 0;
}
