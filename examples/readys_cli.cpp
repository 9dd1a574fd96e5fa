// readys_cli — command-line front end over the library.
//
//   readys_cli train    <app> <tiles> <ncpu> <ngpu> <episodes> <sigma> <out.weights>
//                       [train flags]
//   readys_cli train    --config <run.json> <out.weights> [train flags]
//   readys_cli evaluate <app> <tiles> <ncpu> <ngpu> <sigma> <weights> [runs]
//   readys_cli compare  <app> <tiles> <ncpu> <ngpu> <sigma> [runs]
//   readys_cli gantt    <app> <tiles> <ncpu> <ngpu> <scheduler> [sigma]
//   readys_cli dot      <app> <tiles> <out.dot>
//   readys_cli serve-bench [--config <run.json>] [serve flags]
//   readys_cli cluster-bench [--config <run.json>] [cluster flags]
//
// The flags of train, serve-bench and cluster-bench set RunConfig fields
// (core::for_each_field lists them); usage() prints each set.
//
// <app> ∈ {cholesky, lu, qr}; <scheduler> is any sched::registry() name
// (run an unknown one to get the list). <run.json> is a "readys-run/1"
// document (see docs/api.md).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/stat.h>

#include "core/readys.hpp"

using namespace readys;

namespace {

/// Prints the RunConfig flags `cmd` accepts, then its own `local` ones,
/// wrapped after "    <label> flags:".
void print_flags(const char* label, core::Subcommand cmd,
                 std::initializer_list<const char*> local) {
  std::vector<std::string> words;
  const core::RunConfig defaults;
  core::for_each_field(defaults, [&](const core::Field& f, const auto& m) {
    if (f.flag == nullptr || (f.commands & cmd) == 0) return;
    std::string word = std::string("[") + f.flag;
    if constexpr (!std::is_same_v<std::decay_t<decltype(m)>, bool>) {
      word += std::string(" <") + f.key + ">";
    }
    words.push_back(word + "]");
  });
  words.insert(words.end(), local.begin(), local.end());
  std::string line = std::string("    ") + label + " flags:";
  const std::size_t indent = line.size();
  for (const std::string& word : words) {
    if (line.size() > indent && line.size() + 1 + word.size() > 78) {
      std::fprintf(stderr, "%s\n", line.c_str());
      line.assign(indent, ' ');
    }
    line += ' ' + word;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  readys_cli train    <app> <tiles> <ncpu> <ngpu> <episodes> "
      "<sigma> <out.weights> [train flags]\n"
      "  readys_cli train    --config <run.json> <out.weights> [train "
      "flags]\n");
  print_flags("train", core::kTrain,
              {"[--metrics-out <f.jsonl>]", "[--trace-out <f.json>]",
               "[--manifest <f.json>]"});
  std::fprintf(
      stderr,
      "  readys_cli evaluate <app> <tiles> <ncpu> <ngpu> <sigma> "
      "<weights> [runs]\n"
      "  readys_cli compare  <app> <tiles> <ncpu> <ngpu> <sigma> [runs]\n"
      "  readys_cli gantt    <app> <tiles> <ncpu> <ngpu> <scheduler> "
      "[sigma]\n"
      "  readys_cli dot      <app> <tiles> <out.dot>\n"
      "  readys_cli serve-bench [--config <run.json>] [serve flags]\n");
  print_flags("serve", core::kServeBench, {});
  std::fprintf(stderr,
               "    (with --reload-watch, SIGHUP reloads now)\n"
               "  readys_cli cluster-bench [--config <run.json>] "
               "[cluster flags]\n");
  print_flags("cluster", core::kClusterBench, {"[--runs <n>]"});
  std::fprintf(stderr,
               "  Flag values are the run.json fields of docs/api.md.\n");
  return 2;
}

/// Parses one numeric argument with util's whole-string parsers: "12x",
/// "" or an out-of-range value is reported with the argument's name and
/// the caller exits 2, never truncated the way atoi would.
template <typename T>
bool parse_arg(const char* name, const char* text, T& out) {
  try {
    if constexpr (std::is_same_v<T, double>) {
      out = util::parse_double(name, text);
    } else {
      static_assert(std::is_same_v<T, int>);
      out = util::parse_int(name, text);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  return true;
}

/// The `<tiles> <ncpu> <ngpu>` positionals shared by the per-DAG
/// subcommands, at argv[3..5].
bool parse_shape_args(char** argv, int& tiles, int& ncpu, int& ngpu) {
  return parse_arg("tiles", argv[3], tiles) &&
         parse_arg("ncpu", argv[4], ncpu) &&
         parse_arg("ngpu", argv[5], ngpu);
}

/// A subcommand's own flag (not a RunConfig field); it takes one value.
struct LocalFlag {
  const char* flag;
  std::string* value;
};

/// Parses argv[i..argc) as the flags of subcommand argv[1]: RunConfig
/// table flags `cmd` accepts, then `locals`. Returns 0 when all parse;
/// otherwise prints why and returns the exit code: 2 for a missing or
/// malformed value, usage() for an unknown flag.
int parse_flags(core::Subcommand cmd, int argc, char** argv, int i,
                core::RunConfig& cfg, std::initializer_list<LocalFlag> locals) {
  for (; i < argc; ++i) {
    try {
      if (const int used = cfg.apply_flag(cmd, argc - i, argv + i)) {
        i += used - 1;
        continue;
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    const auto local =
        std::find_if(locals.begin(), locals.end(), [&](const LocalFlag& l) {
          return std::strcmp(l.flag, argv[i]) == 0;
        });
    if (local == locals.end()) {
      std::fprintf(stderr, "unknown %s option '%s'\n", argv[1], argv[i]);
      return usage();
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      return 2;
    }
    *local->value = argv[++i];
  }
  return 0;
}

int cmd_train(int argc, char** argv) {
  core::RunConfig cfg;
  const char* out_path = nullptr;
  int flag_start = 0;
  if (argc >= 4 && std::strcmp(argv[2], "--config") == 0) {
    cfg = core::RunConfig::from_file(argv[3]);
    if (argc < 5) return usage();
    out_path = argv[4];
    flag_start = 5;
  } else {
    if (argc < 9) return usage();
    cfg.app = argv[2];
    if (!parse_shape_args(argv, cfg.tiles, cfg.ncpu, cfg.ngpu) ||
        !parse_arg("episodes", argv[6], cfg.episodes) ||
        !parse_arg("sigma", argv[7], cfg.sigma)) {
      return 2;
    }
    out_path = argv[8];
    flag_start = 9;
  }

  obs::TelemetryConfig telemetry_cfg;
  std::string manifest_path;
  if (const int rc =
          parse_flags(core::kTrain, argc, argv, flag_start, cfg,
                      {{"--metrics-out", &telemetry_cfg.metrics_path},
                       {"--trace-out", &telemetry_cfg.trace_path},
                       {"--manifest", &manifest_path}})) {
    return rc;
  }
  cfg.validate();
  if (!telemetry_cfg.metrics_path.empty() ||
      !telemetry_cfg.trace_path.empty()) {
    obs::install(telemetry_cfg);
  }

  const auto graph = cfg.make_graph();
  const auto platform = cfg.make_platform();
  const auto costs = cfg.make_costs();
  rl::TrainOptions opts = cfg.train_options();
  opts.verbose = true;

  obs::RunManifest manifest("readys_cli train");
  // The whole config document, verbatim: a manifest names exactly the
  // run it describes.
  manifest.set_raw("run_config", cfg.to_json());
  manifest.set("platform", platform.name());
  manifest.set("graph", graph.name());

  rl::ReadysAgent agent(graph.num_kernel_types(), cfg.agent);
  std::printf("training %s on %s, %d episodes, sigma=%.2f, trainer=%s, "
              "envs=%d...\n",
              graph.name().c_str(), platform.name().c_str(), cfg.episodes,
              cfg.sigma, cfg.trainer.c_str(), cfg.num_envs);
  rl::TrainReport report;
  util::ThreadPool pool;
  rl::VecEnv envs(graph, platform, costs, cfg.env_config(),
                  static_cast<std::size_t>(cfg.num_envs), &pool);
  if (cfg.trainer == "ppo") {
    rl::PpoTrainer trainer(agent.net(), cfg.agent);
    report = trainer.train(envs, opts);
  } else {
    rl::A2CTrainer trainer(agent.net(), cfg.agent);
    report = trainer.train(envs, opts);
  }
  agent.save(out_path);
  manifest.add_output(out_path);
  if (report.start_episode > 0) {
    std::printf("resumed at episode %d\n", report.start_episode);
  }
  if (report.skipped_updates > 0 || report.rollbacks > 0) {
    std::printf("divergence guard: %zu updates skipped, %zu rollbacks\n",
                report.skipped_updates, report.rollbacks);
  }
  std::printf("best makespan %.1f ms; weights -> %s\n",
              report.best_makespan, out_path);

  if (obs::Telemetry* t = obs::telemetry()) {
    if (t->tracing()) {
      // One greedy rollout of the trained policy under the simulator so
      // the trace file shows the simulated schedule (pid 1) next to the
      // wall-clock training spans (pid 2) in the same Perfetto view.
      rl::ReadysScheduler policy(agent.net(), agent.config().window,
                                 rl::ReadysOptions{});
      sim::Simulator sim(graph, platform, costs, {cfg.sigma, opts.seed});
      const auto rollout = sim.run(policy);
      t->add_trace_fragment(
          sim::chrome_trace_events(rollout.trace, graph, platform));
      std::printf("greedy rollout makespan %.1f ms -> %s\n",
                  rollout.makespan, t->config().trace_path.c_str());
    }
    if (t->sink() != nullptr) manifest.add_output(t->config().metrics_path);
    if (t->tracing()) manifest.add_output(t->config().trace_path);
  }
  obs::shutdown();
  if (!manifest_path.empty()) {
    manifest.write(manifest_path);
    std::printf("manifest -> %s\n", manifest_path.c_str());
  }
  return 0;
}

int cmd_evaluate(int argc, char** argv) {
  if (argc < 8) return usage();
  int tiles = 0, ncpu = 0, ngpu = 0, runs = 5;
  double sigma = 0.0;
  if (!parse_shape_args(argv, tiles, ncpu, ngpu) ||
      !parse_arg("sigma", argv[6], sigma) ||
      (argc > 8 && !parse_arg("runs", argv[8], runs))) {
    return 2;
  }
  const auto app = core::parse_app(argv[2]);
  const auto graph = core::make_graph(app, tiles);
  const auto platform = sim::Platform::hybrid(ncpu, ngpu);
  const auto costs = core::make_costs(app);

  rl::ReadysAgent agent(graph.num_kernel_types(), rl::AgentConfig{});
  agent.load(argv[7]);
  const auto mks =
      agent.evaluate(graph, platform, costs, sigma, runs, 1234);
  const auto s = util::summarize(mks);
  std::printf("READYS on %s / %s, sigma=%.2f: %.1f ms (+/- %.1f over %d "
              "runs)\n",
              graph.name().c_str(), platform.name().c_str(), sigma, s.mean,
              s.ci95_half_width, runs);
  return 0;
}

int cmd_compare(int argc, char** argv) {
  if (argc < 7) return usage();
  int tiles = 0, ncpu = 0, ngpu = 0, runs = 10;
  double sigma = 0.0;
  if (!parse_shape_args(argv, tiles, ncpu, ngpu) ||
      !parse_arg("sigma", argv[6], sigma) ||
      (argc > 7 && !parse_arg("runs", argv[7], runs))) {
    return 2;
  }
  const auto app = core::parse_app(argv[2]);
  const auto graph = core::make_graph(app, tiles);
  const auto platform = sim::Platform::hybrid(ncpu, ngpu);
  const auto costs = core::make_costs(app);

  util::ThreadPool pool;
  util::Table table({"scheduler", "mean (ms)", "ci95", "min", "max"});
  for (const std::string& name : sched::registry().names()) {
    const auto mks = core::evaluate_makespans(
        graph, platform, costs, core::registry_factory(name), sigma, runs,
        77, &pool);
    const auto s = util::summarize(mks);
    table.add_row({name, util::Table::num(s.mean, 1),
                   util::Table::num(s.ci95_half_width, 1),
                   util::Table::num(s.min, 1), util::Table::num(s.max, 1)});
  }
  std::printf("%s on %s, sigma=%.2f, %d runs\n", graph.name().c_str(),
              platform.name().c_str(), sigma, runs);
  table.print();
  return 0;
}

int cmd_gantt(int argc, char** argv) {
  if (argc < 7) return usage();
  int tiles = 0, ncpu = 0, ngpu = 0;
  double sigma = 0.0;
  if (!parse_shape_args(argv, tiles, ncpu, ngpu) ||
      (argc > 7 && !parse_arg("sigma", argv[7], sigma))) {
    return 2;
  }
  const auto app = core::parse_app(argv[2]);
  const auto graph = core::make_graph(app, tiles);
  const auto platform = sim::Platform::hybrid(ncpu, ngpu);
  const auto costs = core::make_costs(app);
  // Throws with the list of registered names on an unknown scheduler.
  auto scheduler = sched::make_scheduler(argv[6]);

  sim::Simulator sim(graph, platform, costs, {sigma, 42});
  const auto result = sim.run(*scheduler);
  std::printf("%s via %s: makespan %.1f ms\n", graph.name().c_str(),
              scheduler->name().c_str(), result.makespan);
  std::fputs(sim::to_ascii_gantt(result.trace, graph, platform, 100).c_str(),
             stdout);
  return 0;
}

int cmd_dot(int argc, char** argv) {
  if (argc < 5) return usage();
  int tiles = 0;
  if (!parse_arg("tiles", argv[3], tiles)) return 2;
  const auto app = core::parse_app(argv[2]);
  const auto graph = core::make_graph(app, tiles);
  dag::write_dot(graph, argv[4]);
  std::printf("%s (%zu tasks, %zu edges) -> %s\n", graph.name().c_str(),
              graph.num_tasks(), graph.num_edges(), argv[4]);
  return 0;
}

// SIGHUP flips this; the reload watcher thread picks it up.
volatile std::sig_atomic_t g_sighup = 0;
void on_sighup(int) { g_sighup = 1; }

serve::ArrivalMode parse_arrival(const std::string& name) {
  if (name == "poisson") return serve::ArrivalMode::kPoisson;
  if (name == "bursty") return serve::ArrivalMode::kBursty;
  if (name == "pareto") return serve::ArrivalMode::kPareto;
  throw std::invalid_argument("unknown arrival mode '" + name +
                              "' (poisson | bursty | pareto)");
}

// One load run against a live DecisionService, RunConfig-driven: the
// admission/QoS/deadline/fault/reload machinery exercised from the
// command line (the committed baseline sweep lives in
// bench/serve_latency). With --reload-watch the service hot-reloads the
// named readys-ckpt/2 file whenever it changes on disk, and SIGHUP
// forces an immediate reload attempt; rejected candidates keep the
// last-good weights serving.
int cmd_serve_bench(int argc, char** argv) {
  core::RunConfig cfg = core::RunConfig::from_env();
  int i = 2;
  if (argc >= 4 && std::strcmp(argv[2], "--config") == 0) {
    cfg = core::RunConfig::from_file(argv[3]);
    i = 4;
  }
  if (const int rc = parse_flags(core::kServeBench, argc, argv, i, cfg, {})) {
    return rc;
  }
  cfg.validate();
  cfg.agent.seed = cfg.seed;

  // Untrained seeded net: serve latency and the robustness counters do
  // not depend on policy quality. All catalog apps have 4 kernel types,
  // so one net serves the mixed workload.
  rl::PolicyNet net(rl::StateEncoder::node_feature_width(4),
                    rl::StateEncoder::kResourceFeatureWidth, cfg.agent);

  serve::ServiceConfig sc;
  sc.cpus = cfg.ncpu;
  sc.gpus = cfg.ngpu;
  sc.queue_capacity = static_cast<std::size_t>(cfg.serve_queue);
  sc.max_active = static_cast<std::size_t>(cfg.serve_active);
  sc.workers = cfg.serve_workers > 0 ? cfg.serve_workers : 1;
  sc.deadline_us = cfg.serve_deadline_us;
  sc.max_retries = cfg.serve_retries;
  sc.inference_backend = rl::parse_inference_backend(cfg.inference_backend);
  sc.record_latencies = true;
  sc.watchdog_period_ms = 200.0;
  sc.default_tenant.rate_per_s = cfg.serve_tenant_rate;
  sc.default_tenant.burst = cfg.serve_tenant_burst;
  sc.supervise.restart_budget = cfg.serve_restart_budget;
  serve::DecisionService svc(net, cfg.agent, sc);

  // Hot-reload plumbing: a watcher thread polls the checkpoint file's
  // mtime and reloads on change; SIGHUP forces an immediate attempt.
  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (!cfg.serve_reload_watch.empty()) {
    std::signal(SIGHUP, on_sighup);
    const std::string path = cfg.serve_reload_watch;
    watcher = std::thread([&svc, &watch_stop, path] {
      auto mtime_of = [&path]() -> long {
        struct stat st {};
        return stat(path.c_str(), &st) == 0
                   ? static_cast<long>(st.st_mtime)
                   : -1;
      };
      long last_mtime = mtime_of();
      while (!watch_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        const long m = mtime_of();
        const bool forced = g_sighup != 0;
        if (forced) g_sighup = 0;
        if (!forced && (m < 0 || m == last_mtime)) continue;
        last_mtime = m;
        const serve::ReloadResult rr = svc.reload_from_file(path);
        std::printf("reload %s: version %llu%s%s\n",
                    serve::reload_status_name(rr.status),
                    static_cast<unsigned long long>(rr.version),
                    rr.reason.empty() ? "" : " — ", rr.reason.c_str());
      }
    });
  }

  serve::LoadGenConfig lg;
  lg.sessions = cfg.serve_sessions;
  lg.rate = cfg.serve_rate;
  lg.seed = cfg.seed;
  lg.sigma = cfg.sigma;
  lg.arrival = parse_arrival(cfg.serve_arrival);
  lg.burst_factor = cfg.serve_burst_factor;
  lg.pareto_alpha = cfg.serve_pareto_alpha;
  std::printf("serving %d sessions at %.1f/s %s arrivals (queue %d, "
              "active %d, workers %d, deadline %.0f us, retries %d, "
              "backend %s)...\n",
              cfg.serve_sessions, cfg.serve_rate,
              serve::arrival_mode_name(lg.arrival), cfg.serve_queue,
              cfg.serve_active, sc.workers, cfg.serve_deadline_us,
              cfg.serve_retries,
              rl::inference_backend_name(sc.inference_backend));
  const serve::LoadReport r = serve::run_poisson_load(svc, lg);
  if (watcher.joinable()) {
    watch_stop.store(true, std::memory_order_relaxed);
    watcher.join();
  }
  const serve::DecisionService::Counters fc = svc.counters();
  svc.shutdown();

  std::printf("offered   %d\n", r.offered);
  std::printf("admitted  %llu  shed %llu\n",
              static_cast<unsigned long long>(r.admitted),
              static_cast<unsigned long long>(r.shed));
  std::printf("completed %llu  quarantined %llu  retries %llu\n",
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.quarantined),
              static_cast<unsigned long long>(r.retries));
  std::printf("decisions %llu (%.0f/s)  timeouts %llu  fallbacks %llu\n",
              static_cast<unsigned long long>(r.decisions),
              r.decisions_per_s,
              static_cast<unsigned long long>(r.timeouts),
              static_cast<unsigned long long>(r.fallbacks));
  std::printf("decide latency p50 %.1f us, p99 %.1f us\n", r.p50_decide_us,
              r.p99_decide_us);
  std::printf("%.1f sessions/s over %.2f s; mean makespan %.1f ms\n",
              r.sessions_per_s, r.duration_s, r.mean_makespan);
  if (fc.reloads > 0 || fc.reload_rejects > 0 || fc.worker_restarts > 0 ||
      fc.tenant_shed > 0) {
    std::printf("reloads %llu (rejected %llu)  worker restarts %llu  "
                "tenant shed %llu  active weight version %llu%s\n",
                static_cast<unsigned long long>(fc.reloads),
                static_cast<unsigned long long>(fc.reload_rejects),
                static_cast<unsigned long long>(fc.worker_restarts),
                static_cast<unsigned long long>(fc.tenant_shed),
                static_cast<unsigned long long>(svc.active_weight_version()),
                svc.degraded() ? "  [DEGRADED: one-shot MCT]" : "");
  }
  return 0;
}

// Episodes of one DAG under sim::Simulator with the decentralized
// shard:<inner> scheduler family, RunConfig-driven.
// Prints makespan plus the cluster counters (steals, heartbeat
// transitions, rescues, dropped proposals); the committed P x K scaling
// sweep lives in bench/cluster_scale.
int cmd_cluster_bench(int argc, char** argv) {
  cluster::register_cluster_scheduler();
  core::RunConfig cfg = core::RunConfig::from_env();
  int i = 2;
  if (argc >= 4 && std::strcmp(argv[2], "--config") == 0) {
    cfg = core::RunConfig::from_file(argv[3]);
    i = 4;
  }
  std::string runs_text = "5";
  if (const int rc = parse_flags(core::kClusterBench, argc, argv, i, cfg,
                                 {{"--runs", &runs_text}})) {
    return rc;
  }
  int runs = 0;
  if (!parse_arg("--runs", runs_text.c_str(), runs)) return 2;
  if (runs < 1) {
    std::fprintf(stderr, "--runs must be >= 1, got '%s'\n", runs_text.c_str());
    return 2;
  }
  cfg.validate();

  const auto graph = cfg.make_graph();
  const auto platform = cfg.make_platform();
  const auto costs = cfg.make_costs();

  // Make "readys" resolvable inside cluster specs ("shard(...):readys",
  // "guarded:readys") with the configured inference backend. Untrained
  // seeded net: scheduling throughput does not depend on policy quality.
  cfg.agent.seed = cfg.seed;
  rl::PolicyNet net(rl::StateEncoder::node_feature_width(4),
                    rl::StateEncoder::kResourceFeatureWidth, cfg.agent);
  rl::ReadysOptions readys_defaults;
  readys_defaults.random_offer = cfg.random_offer;
  readys_defaults.backend = rl::parse_inference_backend(cfg.inference_backend);
  rl::register_readys_scheduler(net, cfg.agent.window, readys_defaults);

  // A bare inner spec gets wrapped into the decentralized family from
  // the cluster_* knobs; a spec already naming shard(...) is kept as is
  // so --config can pin exact options.
  std::string spec = cfg.scheduler;
  if (cfg.cluster_shards > 1 && spec.rfind("shard", 0) != 0) {
    spec = "shard(shards=" + std::to_string(cfg.cluster_shards) +
           ",stale_ms=" + std::to_string(cfg.cluster_stale_ms) +
           ",hb_ms=" + std::to_string(cfg.cluster_hb_ms) +
           ",parallel=" + std::to_string(cfg.cluster_parallel) + "):" + spec;
  }

  std::vector<double> mks;
  std::size_t steals = 0, stolen = 0, rescues = 0, dropped = 0, hb = 0;
  std::string sched_name;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t tasks_done = 0;
  for (int run = 0; run < runs; ++run) {
    sched::SchedulerConfig sc;
    sc.seed = cfg.seed + static_cast<std::uint64_t>(run);
    auto scheduler = sched::make_scheduler(spec, sc);
    sched_name = scheduler->name();
    sim::Simulator::Options opt;
    opt.sigma = cfg.sigma;
    opt.seed = cfg.seed + static_cast<std::uint64_t>(run);
    if (cfg.has_comm()) opt.comm = cfg.make_comm();
    sim::Simulator sim(graph, platform, costs, opt);
    const auto r = sim.run(*scheduler);
    mks.push_back(r.makespan);
    tasks_done += r.trace.size();
    if (const auto* ss =
            dynamic_cast<const cluster::ShardScheduler*>(scheduler.get())) {
      steals += ss->steals();
      stolen += ss->stolen_tasks();
      rescues += ss->rescue_fallbacks();
      dropped += ss->dropped_assignments();
      hb += ss->heartbeat().total_transitions();
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto s = util::summarize(mks);
  std::printf("%s on %s via %s, sigma=%.2f, K=%d, %d runs\n",
              graph.name().c_str(), platform.name().c_str(),
              sched_name.c_str(), cfg.sigma, cfg.cluster_shards, runs);
  std::printf("makespan %.1f ms (+/- %.1f), %.0f scheduled tasks/s wall\n",
              s.mean, s.ci95_half_width,
              wall_s > 0 ? static_cast<double>(tasks_done) / wall_s : 0.0);
  std::printf("steals %zu (tasks %zu)  heartbeat transitions %zu  "
              "rescues %zu  dropped %zu\n",
              steals, stolen, hb, rescues, dropped);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const std::string cmd = argv[1];
    if (cmd == "train") return cmd_train(argc, argv);
    if (cmd == "evaluate") return cmd_evaluate(argc, argv);
    if (cmd == "compare") return cmd_compare(argc, argv);
    if (cmd == "gantt") return cmd_gantt(argc, argv);
    if (cmd == "dot") return cmd_dot(argc, argv);
    if (cmd == "serve-bench") return cmd_serve_bench(argc, argv);
    if (cmd == "cluster-bench") return cmd_cluster_bench(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
