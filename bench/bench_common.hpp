#pragma once

// Shared helpers for the figure-reproduction harnesses.
//
// Budgets are environment-tunable so the same binaries serve as smoke
// tests and as full paper-scale reproductions:
//   READYS_TRAIN_EPISODES  training episodes per agent (default 3000)
//   READYS_EVAL_SEEDS      evaluation runs per point (default 5)
//   READYS_SIGMAS          comma list of noise levels
//   READYS_TILES           comma list of tile counts
//   READYS_HIDDEN          embedding width (default 64)
//   READYS_CHECKPOINT_DIR  checkpoint trainings here (resumable; each
//                          training seed gets its own subdirectory)
//   READYS_RESUME          1 = resume trainings from READYS_CHECKPOINT_DIR

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/readys.hpp"

namespace bench {

using namespace readys;

struct Budget {
  int base_episodes;
  int eval_seeds;
  int hidden;
  int train_seeds;  ///< independent trainings per cell; the best is kept
  std::string checkpoint_dir;  ///< empty = no checkpointing
  bool resume;                 ///< restart trainings from checkpoint_dir

  static Budget from_env() {
    Budget b;
    b.base_episodes = util::env_int("READYS_TRAIN_EPISODES", 2500);
    b.eval_seeds = util::env_int("READYS_EVAL_SEEDS", 5);
    b.hidden = util::env_int("READYS_HIDDEN", 64);
    b.train_seeds = util::env_int("READYS_TRAIN_SEEDS", 2);
    b.checkpoint_dir = util::env_string("READYS_CHECKPOINT_DIR", "");
    b.resume = util::env_int("READYS_RESUME", 0) != 0;
    return b;
  }

  /// With episode-end A2C updates (one gradient step per episode) every
  /// instance needs the same number of episodes to get the same number
  /// of updates, so the budget is flat in the graph size.
  int episodes_for(std::size_t num_tasks) const {
    (void)num_tasks;
    return std::max(20, base_episodes);
  }
};

/// Telemetry + manifest scope for a bench main. Construction installs
/// telemetry from READYS_METRICS_OUT / READYS_TRACE_OUT (a no-op when
/// neither is set) and stamps the manifest start time; destruction
/// finalizes telemetry (flushes the JSONL sink, writes the trace file).
/// Call finish(artifact) after each artifact the bench writes to drop a
/// "<artifact>.manifest.json" reproducibility record next to it.
struct BenchRun {
  obs::RunManifest manifest;

  explicit BenchRun(const std::string& tool) : manifest(tool) {
    obs::install_from_env();
  }

  BenchRun(const std::string& tool, const Budget& budget) : BenchRun(tool) {
    manifest.set("train_episodes", budget.base_episodes);
    manifest.set("eval_seeds", budget.eval_seeds);
    manifest.set("hidden", budget.hidden);
    manifest.set("train_seeds", budget.train_seeds);
    if (!budget.checkpoint_dir.empty()) {
      manifest.set("checkpoint_dir", budget.checkpoint_dir);
    }
    manifest.set("resume", budget.resume);
  }

  ~BenchRun() { obs::shutdown(); }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  /// Records `artifact` as an output and writes the manifest to its
  /// conventional sibling path.
  void finish(const std::string& artifact) {
    manifest.add_output(artifact);
    manifest.write(obs::RunManifest::sibling_path(artifact));
  }

  /// Records which schedulers the bench exercised, by registry name, as
  /// a JSON array under "schedulers".
  void set_schedulers(const std::vector<std::string>& names) {
    std::string arr = "[";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) arr += ",";
      arr += "\"" + obs::json_escape(names[i]) + "\"";
    }
    arr += "]";
    manifest.set_raw("schedulers", arr);
  }
};

inline rl::AgentConfig default_agent_config(const Budget& b,
                                            std::uint64_t seed = 1) {
  rl::AgentConfig cfg;
  cfg.hidden = b.hidden;
  cfg.window = 1;
  cfg.gcn_layers = 2;
  cfg.seed = seed;
  return cfg;
}

/// Trains `budget.train_seeds` independent agents on the instance and
/// returns the one with the best mean evaluation makespan. A2C on this
/// MDP has a known bad local optimum (serialize everything on one GPU);
/// best-of-k seeds is the standard cheap hedge and is reported as such
/// in EXPERIMENTS.md.
///
/// The k trainings share nothing (each owns its net, env and RNG
/// streams), so with a pool they run concurrently; the selection scan
/// stays serial and deterministic. Results are identical with and
/// without a pool.
inline std::unique_ptr<rl::ReadysAgent> train_agent(
    const dag::TaskGraph& graph, const sim::Platform& platform,
    const sim::CostModel& costs, double sigma, const Budget& budget,
    std::uint64_t seed = 1, util::ThreadPool* pool = nullptr) {
  const int k = std::max(1, budget.train_seeds);
  std::vector<std::unique_ptr<rl::ReadysAgent>> agents(
      static_cast<std::size_t>(k));
  std::vector<double> means(static_cast<std::size_t>(k), 0.0);
  const auto train_one = [&](std::size_t i) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i) * 7919;
    auto agent = std::make_unique<rl::ReadysAgent>(
        graph.num_kernel_types(), default_agent_config(budget, s));
    rl::TrainOptions opts;
    opts.episodes = budget.episodes_for(graph.num_tasks());
    opts.sigma = sigma;
    opts.seed = s;
    if (!budget.checkpoint_dir.empty()) {
      // One subdirectory per training seed: the k trainings run
      // concurrently and must not clobber each other's checkpoints.
      opts.checkpoint_dir =
          budget.checkpoint_dir + "/seed-" + std::to_string(s);
      opts.resume = budget.resume;
    }
    agent->train(graph, platform, costs, opts);
    // Serial evaluation on purpose: the pool's workers are already busy
    // with sibling trainings and nested parallel_for would deadlock.
    means[i] = util::mean(
        agent->evaluate(graph, platform, costs, sigma, budget.eval_seeds,
                        20'000));
    agents[i] = std::move(agent);
  };
  if (pool != nullptr && k > 1) {
    pool->parallel_for(static_cast<std::size_t>(k), train_one);
  } else {
    for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
      train_one(i);
    }
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < means.size(); ++i) {
    if (means[i] < means[best]) best = i;
  }
  return std::move(agents[best]);
}

/// Factory adapter for a trained agent (greedy evaluation policy).
inline core::SchedulerFactory agent_factory(const rl::ReadysAgent& agent) {
  return [&agent](std::uint64_t seed) {
    return std::make_unique<rl::ReadysScheduler>(
        agent.net(), agent.config().window,
        rl::ReadysOptions{.greedy = true, .seed = seed});
  };
}

/// Mean makespans of READYS / HEFT / MCT on one evaluation point.
struct Point {
  double readys = 0.0;
  double heft = 0.0;
  double mct = 0.0;
  double over_heft() const { return heft / readys; }
  double over_mct() const { return mct / readys; }
};

inline Point evaluate_point(const dag::TaskGraph& graph,
                            const sim::Platform& platform,
                            const sim::CostModel& costs,
                            const rl::ReadysAgent& agent, double sigma,
                            int seeds, util::ThreadPool* pool) {
  const std::uint64_t seed_base = 10'000;
  Point p;
  p.readys = util::mean(core::evaluate_makespans(
      graph, platform, costs, agent_factory(agent), sigma, seeds, seed_base,
      pool));
  p.heft = util::mean(core::evaluate_makespans(
      graph, platform, costs, core::heft_factory(), sigma, seeds, seed_base,
      pool));
  p.mct = util::mean(core::evaluate_makespans(
      graph, platform, costs, core::mct_factory(), sigma, seeds, seed_base,
      pool));
  return p;
}

inline std::string fmt(double v, int precision = 3) {
  return util::Table::num(v, precision);
}

}  // namespace bench
