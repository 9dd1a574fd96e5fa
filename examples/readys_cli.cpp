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
// train flags: [--trainer a2c|ppo] [--num-envs <n>]
//              [--async] [--async-actors <n>] [--async-batch <n>]
//              [--checkpoint-dir <dir>] [--checkpoint-every <n>]
//              [--checkpoint-retain <k>] [--resume]
//              [--metrics-out <f.jsonl>] [--trace-out <f.json>]
//              [--manifest <f.json>]
//
// <app> ∈ {cholesky, lu, qr}; <scheduler> is any sched::registry() name
// (run an unknown one to get the list). <run.json> is a "readys-run/1"
// document (see docs/api.md).

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "core/readys.hpp"

using namespace readys;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  readys_cli train    <app> <tiles> <ncpu> <ngpu> <episodes> "
      "<sigma> <out.weights> [train flags]\n"
      "  readys_cli train    --config <run.json> <out.weights> [train "
      "flags]\n"
      "    train flags: [--trainer a2c|ppo] [--num-envs <n>]\n"
      "                 [--async] [--async-actors <n>] [--async-batch <n>]\n"
      "                 [--checkpoint-dir <dir>] [--checkpoint-every <n>]\n"
      "                 [--checkpoint-retain <k>] [--resume]\n"
      "                 [--metrics-out <f.jsonl>] [--trace-out <f.json>] "
      "[--manifest <f.json>]\n"
      "  readys_cli evaluate <app> <tiles> <ncpu> <ngpu> <sigma> "
      "<weights> [runs]\n"
      "  readys_cli compare  <app> <tiles> <ncpu> <ngpu> <sigma> [runs]\n"
      "  readys_cli gantt    <app> <tiles> <ncpu> <ngpu> <scheduler> "
      "[sigma]\n"
      "  readys_cli dot      <app> <tiles> <out.dot>\n"
      "  readys_cli serve-bench [--config <run.json>] [serve flags]\n"
      "    serve flags: [--sessions <n>] [--rate <per_s>] [--queue <n>]\n"
      "                 [--active <n>] [--workers <n>] [--deadline-us <d>]\n"
      "                 [--retries <n>] [--backend f64ref|f32simd]\n"
      "                 [--arrival poisson|bursty|pareto] "
      "[--burst-factor <f>]\n"
      "                 [--pareto-alpha <a>] [--tenant-rate <per_s>]\n"
      "                 [--tenant-burst <n>] [--restart-budget <n>]\n"
      "                 [--reload-watch <ckpt>]  (SIGHUP reloads now)\n"
      "  readys_cli cluster-bench [--config <run.json>] [cluster flags]\n"
      "    cluster flags: [--app <a>] [--tiles <n>] [--ncpu <n>] "
      "[--ngpu <n>]\n"
      "                   [--sigma <s>] [--scheduler <spec>] [--runs <n>]\n"
      "                   [--seed <n>] [--shards <k>] [--stale-ms <d>]\n"
      "                   [--hb-ms <d>] [--parallel <n>]\n"
      "                   [--comm-tile-bytes <b>] [--comm-bandwidth <b_ms>]\n"
      "                   [--comm-latency-ms <d>] "
      "[--backend f64ref|f32simd]\n");
  return 2;
}

/// Whole-string integer parse for `readys_cli train`: "12x", "" or an
/// out-of-range value is reported with the argument's name, never
/// truncated the way atoi would.
bool parse_int_arg(const char* name, const char* text, int& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec != std::errc() || ptr != end || ptr == text) {
    std::fprintf(stderr, "train: %s must be an integer, got '%s'\n", name,
                 text);
    return false;
  }
  return true;
}

/// Whole-string finite floating-point parse; see parse_int_arg.
bool parse_double_arg(const char* name, const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    std::fprintf(stderr, "train: %s must be a number, got '%s'\n", name,
                 text);
    return false;
  }
  out = v;
  return true;
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
    if (!parse_int_arg("tiles", argv[3], cfg.tiles) ||
        !parse_int_arg("ncpu", argv[4], cfg.ncpu) ||
        !parse_int_arg("ngpu", argv[5], cfg.ngpu) ||
        !parse_int_arg("episodes", argv[6], cfg.episodes) ||
        !parse_double_arg("sigma", argv[7], cfg.sigma)) {
      return 2;
    }
    out_path = argv[8];
    flag_start = 9;
  }

  obs::TelemetryConfig telemetry_cfg;
  std::string manifest_path;
  for (int i = flag_start; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trainer" && i + 1 < argc) {
      cfg.trainer = argv[++i];
    } else if (flag == "--num-envs" && i + 1 < argc) {
      if (!parse_int_arg("--num-envs", argv[++i], cfg.num_envs)) return 2;
    } else if (flag == "--async") {
      cfg.async = true;
    } else if (flag == "--async-actors" && i + 1 < argc) {
      if (!parse_int_arg("--async-actors", argv[++i], cfg.async_actors)) {
        return 2;
      }
    } else if (flag == "--async-batch" && i + 1 < argc) {
      if (!parse_int_arg("--async-batch", argv[++i], cfg.async_batch)) {
        return 2;
      }
    } else if (flag == "--checkpoint-dir" && i + 1 < argc) {
      cfg.checkpoint_dir = argv[++i];
    } else if (flag == "--checkpoint-every" && i + 1 < argc) {
      if (!parse_int_arg("--checkpoint-every", argv[++i],
                         cfg.checkpoint_every)) {
        return 2;
      }
    } else if (flag == "--checkpoint-retain" && i + 1 < argc) {
      if (!parse_int_arg("--checkpoint-retain", argv[++i],
                         cfg.checkpoint_retain)) {
        return 2;
      }
    } else if (flag == "--resume") {
      cfg.resume = true;
    } else if (flag == "--metrics-out" && i + 1 < argc) {
      telemetry_cfg.metrics_path = argv[++i];
    } else if (flag == "--trace-out" && i + 1 < argc) {
      telemetry_cfg.trace_path = argv[++i];
    } else if (flag == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown train option '%s'\n", flag.c_str());
      return usage();
    }
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
      rl::ReadysScheduler policy(agent.net(), agent.config().window);
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
  const auto app = core::parse_app(argv[2]);
  const auto graph = core::make_graph(app, std::atoi(argv[3]));
  const auto platform =
      sim::Platform::hybrid(std::atoi(argv[4]), std::atoi(argv[5]));
  const auto costs = core::make_costs(app);
  const double sigma = std::atof(argv[6]);
  const int runs = argc > 8 ? std::atoi(argv[8]) : 5;

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
  const auto app = core::parse_app(argv[2]);
  const auto graph = core::make_graph(app, std::atoi(argv[3]));
  const auto platform =
      sim::Platform::hybrid(std::atoi(argv[4]), std::atoi(argv[5]));
  const auto costs = core::make_costs(app);
  const double sigma = std::atof(argv[6]);
  const int runs = argc > 7 ? std::atoi(argv[7]) : 10;

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
  const auto app = core::parse_app(argv[2]);
  const auto graph = core::make_graph(app, std::atoi(argv[3]));
  const auto platform =
      sim::Platform::hybrid(std::atoi(argv[4]), std::atoi(argv[5]));
  const auto costs = core::make_costs(app);
  // Throws with the list of registered names on an unknown scheduler.
  auto scheduler = sched::make_scheduler(argv[6]);
  const double sigma = argc > 7 ? std::atof(argv[7]) : 0.0;

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
  const auto app = core::parse_app(argv[2]);
  const auto graph = core::make_graph(app, std::atoi(argv[3]));
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
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--sessions" && i + 1 < argc) {
      cfg.serve_sessions = std::atoi(argv[++i]);
    } else if (flag == "--rate" && i + 1 < argc) {
      cfg.serve_rate = std::atof(argv[++i]);
    } else if (flag == "--queue" && i + 1 < argc) {
      cfg.serve_queue = std::atoi(argv[++i]);
    } else if (flag == "--active" && i + 1 < argc) {
      cfg.serve_active = std::atoi(argv[++i]);
    } else if (flag == "--workers" && i + 1 < argc) {
      cfg.serve_workers = std::atoi(argv[++i]);
    } else if (flag == "--deadline-us" && i + 1 < argc) {
      cfg.serve_deadline_us = std::atof(argv[++i]);
    } else if (flag == "--retries" && i + 1 < argc) {
      cfg.serve_retries = std::atoi(argv[++i]);
    } else if (flag == "--backend" && i + 1 < argc) {
      cfg.inference_backend = argv[++i];
    } else if (flag == "--arrival" && i + 1 < argc) {
      cfg.serve_arrival = argv[++i];
    } else if (flag == "--burst-factor" && i + 1 < argc) {
      cfg.serve_burst_factor = std::atof(argv[++i]);
    } else if (flag == "--pareto-alpha" && i + 1 < argc) {
      cfg.serve_pareto_alpha = std::atof(argv[++i]);
    } else if (flag == "--tenant-rate" && i + 1 < argc) {
      cfg.serve_tenant_rate = std::atof(argv[++i]);
    } else if (flag == "--tenant-burst" && i + 1 < argc) {
      cfg.serve_tenant_burst = std::atof(argv[++i]);
    } else if (flag == "--restart-budget" && i + 1 < argc) {
      cfg.serve_restart_budget = std::atoi(argv[++i]);
    } else if (flag == "--reload-watch" && i + 1 < argc) {
      cfg.serve_reload_watch = argv[++i];
    } else {
      std::fprintf(stderr, "unknown serve-bench option '%s'\n", flag.c_str());
      return usage();
    }
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

// Episodes of one DAG under the sharded simulation core with the
// decentralized shard:<inner> scheduler family, RunConfig-driven.
// Prints makespan plus the cluster counters (steals, heartbeat
// transitions, rescues, dropped proposals); the committed P x K scaling
// sweep lives in bench/cluster_scale.
int cmd_cluster_bench(int argc, char** argv) {
  cluster::register_cluster_scheduler();
  core::RunConfig cfg = core::RunConfig::from_env();
  int runs = 5;
  int i = 2;
  if (argc >= 4 && std::strcmp(argv[2], "--config") == 0) {
    cfg = core::RunConfig::from_file(argv[3]);
    i = 4;
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--app" && i + 1 < argc) {
      cfg.app = argv[++i];
    } else if (flag == "--tiles" && i + 1 < argc) {
      cfg.tiles = std::atoi(argv[++i]);
    } else if (flag == "--ncpu" && i + 1 < argc) {
      cfg.ncpu = std::atoi(argv[++i]);
    } else if (flag == "--ngpu" && i + 1 < argc) {
      cfg.ngpu = std::atoi(argv[++i]);
    } else if (flag == "--sigma" && i + 1 < argc) {
      cfg.sigma = std::atof(argv[++i]);
    } else if (flag == "--scheduler" && i + 1 < argc) {
      cfg.scheduler = argv[++i];
    } else if (flag == "--runs" && i + 1 < argc) {
      runs = std::atoi(argv[++i]);
    } else if (flag == "--seed" && i + 1 < argc) {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (flag == "--shards" && i + 1 < argc) {
      cfg.cluster_shards = std::atoi(argv[++i]);
    } else if (flag == "--stale-ms" && i + 1 < argc) {
      cfg.cluster_stale_ms = std::atof(argv[++i]);
    } else if (flag == "--hb-ms" && i + 1 < argc) {
      cfg.cluster_hb_ms = std::atof(argv[++i]);
    } else if (flag == "--parallel" && i + 1 < argc) {
      cfg.cluster_parallel = std::atoi(argv[++i]);
    } else if (flag == "--comm-tile-bytes" && i + 1 < argc) {
      cfg.comm_tile_bytes = std::atof(argv[++i]);
    } else if (flag == "--comm-bandwidth" && i + 1 < argc) {
      cfg.comm_bandwidth = std::atof(argv[++i]);
    } else if (flag == "--comm-latency-ms" && i + 1 < argc) {
      cfg.comm_latency_ms = std::atof(argv[++i]);
    } else if (flag == "--backend" && i + 1 < argc) {
      cfg.inference_backend = argv[++i];
    } else {
      std::fprintf(stderr, "unknown cluster-bench option '%s'\n",
                   flag.c_str());
      return usage();
    }
  }
  cfg.validate();
  if (runs < 1) runs = 1;

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
  readys_defaults.backend = rl::parse_inference_backend(cfg.inference_backend);
  rl::register_readys_scheduler(net, cfg.agent.window, cfg.random_offer,
                                readys_defaults);

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
    cluster::ClusterSimulator::Options opt;
    opt.sigma = cfg.sigma;
    opt.seed = cfg.seed + static_cast<std::uint64_t>(run);
    opt.shards = cfg.cluster_shards;
    if (cfg.has_comm()) opt.comm = cfg.make_comm();
    cluster::ClusterSimulator sim(graph, platform, costs, opt);
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
