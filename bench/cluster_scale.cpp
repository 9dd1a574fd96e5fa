// Cluster-scale scheduling baseline: wall-clock decisions/sec of the
// centralized MCT scheduler vs the decentralized shard(KxMCT) family as
// the platform grows to P=1024 resources, on width-heavy random layered
// DAGs (~2P tasks per layer, so every decision round carries a batch of
// newly-ready tasks proportional to P).
//
// Two axes are recorded per (P, K) cell: wall-clock decisions/s and
// mean makespan. In a monolithic simulator the centralized scheduler
// pays no communication cost, so decentralization is pure overhead in
// wall clock — each inner MCT scans only its own P/K resources, but
// the coordinator's scoped-view refresh and failure detection
// re-introduce O(P) passes per round with higher constants than the
// engine-backed scan they replace. The decentralized win shows up on
// the *quality* axis instead: locality-driven ownership plus work
// stealing beat the centralized MCT's makespan at high P. The
// committed BENCH_cluster_scale.json series tracks both; EXPERIMENTS.md
// documents the measured crossover and the overhead decomposition.
//
//   READYS_BENCH_RESOURCES  comma list of platform sizes (16,64,256,1024)
//   READYS_BENCH_SHARDS     comma list of shard counts   (1,4,16,64)
//   READYS_BENCH_SECONDS    min wall time per cell (0.3)
//   READYS_BENCH_EPISODES   fixed episode count per cell (0 = time-target)
//   READYS_BENCH_SIGMA      duration noise level (0.1)
//
// Every cell runs on sim::Simulator; K=1 is plain MCT, the centralized
// baseline.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace readys;

namespace {

struct Cell {
  int resources = 0;
  int shards = 0;
  std::size_t tasks = 0;
  int episodes = 0;
  double wall_s = 0.0;
  double decisions_per_s = 0.0;
  double mean_makespan = 0.0;
  std::size_t steals = 0;
  std::size_t hb_transitions = 0;
};

/// One width-heavy instance per platform size: ~2P tasks per layer with
/// mean in-degree ~4, so ready batches scale with P while the edge count
/// stays linear in the task count.
dag::TaskGraph make_wide_graph(int resources) {
  dag::RandomDagConfig cfg;
  cfg.layers = 6;
  cfg.width = 2 * resources;
  cfg.edge_density = std::min(0.4, 4.0 / static_cast<double>(cfg.width));
  cfg.kernel_types = 4;
  cfg.connect_layers = true;
  util::Rng rng(0x5ca1eull + static_cast<std::uint64_t>(resources));
  return dag::random_layered_dag(cfg, rng);
}

Cell run_cell(const dag::TaskGraph& graph, const sim::Platform& platform,
              const sim::CostModel& costs, int shards, double sigma,
              double min_seconds, int fixed_episodes) {
  using clock = std::chrono::steady_clock;
  Cell cell;
  cell.resources = platform.size();
  cell.shards = shards;
  cell.tasks = graph.num_tasks();

  const std::string spec =
      shards > 1 ? "shard(shards=" + std::to_string(shards) + "):mct" : "mct";
  const auto make = [&](std::uint64_t seed) {
    sched::SchedulerConfig sc;
    sc.seed = seed;
    return sched::make_scheduler(spec, sc);
  };

  {  // Warm-up: touches cold memory, builds the partition and monitors.
    auto sched = make(1);
    sim::Simulator sim(graph, platform, costs, {sigma, 1});
    sim.run(*sched);
  }

  double makespan_acc = 0.0;
  const auto t0 = clock::now();
  double elapsed = 0.0;
  while (fixed_episodes > 0 ? cell.episodes < fixed_episodes
                            : elapsed < min_seconds) {
    const std::uint64_t seed = static_cast<std::uint64_t>(cell.episodes) + 1;
    auto sched = make(seed);
    sim::Simulator sim(graph, platform, costs, {sigma, seed});
    makespan_acc += sim.run(*sched).makespan;
    if (const auto* ss =
            dynamic_cast<const cluster::ShardScheduler*>(sched.get())) {
      cell.steals += ss->steals();
      cell.hb_transitions += ss->heartbeat().total_transitions();
    }
    ++cell.episodes;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  }
  cell.wall_s = elapsed;
  cell.decisions_per_s = static_cast<double>(cell.tasks) *
                         static_cast<double>(cell.episodes) / elapsed;
  cell.mean_makespan = makespan_acc / static_cast<double>(cell.episodes);
  return cell;
}

}  // namespace

int main() {
  cluster::register_cluster_scheduler();
  const auto resources =
      util::env_int_list("READYS_BENCH_RESOURCES", {16, 64, 256, 1024});
  const auto shard_counts =
      util::env_int_list("READYS_BENCH_SHARDS", {1, 4, 16, 64});
  const double min_seconds = util::env_double("READYS_BENCH_SECONDS", 0.3);
  const int fixed_episodes = util::env_int("READYS_BENCH_EPISODES", 0);
  const double sigma = util::env_double("READYS_BENCH_SIGMA", 0.1);
  const auto costs = sim::CostModel::cholesky();

  bench::BenchRun run("cluster_scale");
  run.manifest.set("sigma", sigma);
  run.manifest.set("min_seconds", min_seconds);
  run.manifest.set("fixed_episodes", fixed_episodes);
  run.set_schedulers({"mct", "shard:mct"});

  std::printf("=== Cluster scaling: centralized MCT vs shard(KxMCT), "
              "sigma=%.2f ===\n\n",
              sigma);
  util::Table table({"P", "K", "tasks", "episodes", "decisions/s",
                     "vs K=1", "mean mk (ms)", "steals"});
  std::vector<Cell> cells;
  for (const int p : resources) {
    const auto graph = make_wide_graph(p);
    const auto platform = sim::Platform::hybrid(p / 2, p - p / 2);
    double centralized = 0.0;
    for (const int k : shard_counts) {
      if (k > p) continue;
      const auto cell = run_cell(graph, platform, costs, k, sigma,
                                 min_seconds, fixed_episodes);
      if (k == 1) centralized = cell.decisions_per_s;
      const double speedup =
          centralized > 0.0 ? cell.decisions_per_s / centralized : 0.0;
      table.add_row({std::to_string(cell.resources),
                     std::to_string(cell.shards),
                     std::to_string(cell.tasks),
                     std::to_string(cell.episodes),
                     util::Table::num(cell.decisions_per_s, 0),
                     util::Table::num(speedup, 2) + "x",
                     util::Table::num(cell.mean_makespan, 1),
                     std::to_string(cell.steals)});
      cells.push_back(cell);
    }
  }
  table.print();

  const char* path = "BENCH_cluster_scale.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"cluster_scale\",\n");
  std::fprintf(f, "  \"sigma\": %.3f,\n  \"cells\": [\n", sigma);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"resources\": %d, \"shards\": %d, \"tasks\": %zu, "
                 "\"episodes\": %d, \"wall_s\": %.3f, "
                 "\"decisions_per_s\": %.1f, \"mean_makespan_ms\": %.3f, "
                 "\"steals\": %zu, \"hb_transitions\": %zu}%s\n",
                 c.resources, c.shards, c.tasks, c.episodes, c.wall_s,
                 c.decisions_per_s, c.mean_makespan, c.steals,
                 c.hb_transitions, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nscaling series written to %s\n", path);
  run.finish(path);
  return 0;
}
