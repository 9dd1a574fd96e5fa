// Serve-latency baseline for the DecisionService (src/serve): seeded
// Poisson session arrivals over the mixed Cholesky/LU/QR catalog,
// reporting p50/p99 decide latency, sessions/s, and the robustness
// counters (shed / deadline timeouts / MCT fallbacks / retries) into
// BENCH_serve_latency.json (+ sibling manifest).
//
// Five offered-load levels per run:
//   underload  ~0.5x measured capacity, roomy queue — nothing sheds
//   overload   ~3x capacity against a small queue — admission control
//              must shed with bounded latency, not collapse
//   deadline   underload with a tight per-decision budget — decisions
//              degrade to one-shot MCT instead of stalling
//   reload     underload while a thread force-publishes new weight
//              snapshots the whole run — hot swap must not stall the
//              decision path (bar: p99 <= 2x the no-reload underload p99)
//   noisy      a rate-limited bursty "hog" tenant slams the queue while
//              a steady "victim" tenant runs at ~0.4x capacity — QoS
//              must make the hog absorb the sheds (bar: >= 80%)
//
// The policy is an untrained seeded PolicyNet: decision *latency* and
// the robustness machinery do not depend on policy quality, and an
// untrained net keeps the bench self-contained and fast. Knobs:
//   READYS_SERVE_SESSIONS   sessions offered per level (default 64)
//   READYS_SERVE_ACTIVE     batch width per decision round (default 8)
//   READYS_SERVE_WORKERS    worker threads (default 1; this host has 1 core)
//   READYS_SERVE_QUEUE      underload queue capacity (default 64)
//   READYS_HIDDEN           embedding width (default 32)
//   READYS_SEED             seed for net + arrivals (default 1)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

using namespace readys;

namespace {

struct Level {
  std::string name;
  serve::LoadGenConfig load;
  serve::ServiceConfig service;
  serve::LoadReport report;
  std::string extra;  ///< optional extra JSON object ("detail" key)
};

serve::ServiceConfig base_service(const core::RunConfig& cfg) {
  serve::ServiceConfig sc;
  sc.cpus = cfg.ncpu;
  sc.gpus = cfg.ngpu;
  sc.queue_capacity = static_cast<std::size_t>(cfg.serve_queue);
  sc.max_active = static_cast<std::size_t>(cfg.serve_active);
  sc.workers = std::max(1, cfg.serve_workers);
  sc.max_retries = cfg.serve_retries;
  sc.record_latencies = true;
  sc.watchdog_period_ms = 200.0;
  return sc;
}

/// Closed-loop capacity probe: saturate the service (every session
/// queued up front) and measure completed sessions/s. The Poisson
/// levels are set relative to this so the bench lands on the right side
/// of the shedding threshold on any host speed.
double calibrate_capacity(const rl::PolicyNet& net,
                          const rl::AgentConfig& agent,
                          const core::RunConfig& cfg) {
  using clock = std::chrono::steady_clock;
  serve::ServiceConfig sc = base_service(cfg);
  const int n = std::max(8, cfg.serve_sessions / 2);
  sc.queue_capacity = static_cast<std::size_t>(n);
  sc.record_latencies = false;
  serve::DecisionService svc(net, agent, sc);

  serve::LoadGenConfig lg;
  lg.seed = cfg.seed;
  util::Rng rng(lg.seed ^ 0xCA11B247E5ULL);
  const auto t0 = clock::now();
  for (int i = 0; i < n; ++i) {
    svc.submit(serve::draw_catalog_spec(lg, rng));
  }
  svc.wait_idle();
  const double secs = std::chrono::duration<double>(clock::now() - t0).count();
  svc.shutdown();
  const auto c = svc.counters();
  return secs > 0.0 ? static_cast<double>(c.completed) / secs : 1.0;
}

serve::LoadReport run_level(const rl::PolicyNet& net,
                            const rl::AgentConfig& agent, Level& level) {
  serve::DecisionService svc(net, agent, level.service);
  serve::LoadReport report = serve::run_poisson_load(svc, level.load);
  svc.shutdown();
  return report;
}

std::string level_json(const Level& lv) {
  const serve::LoadReport& r = lv.report;
  obs::JsonObject j;
  j.field("level", lv.name)
      .field("offered_rate_per_s", lv.load.rate)
      .field("offered_sessions", r.offered)
      .field("queue_capacity",
             static_cast<std::uint64_t>(lv.service.queue_capacity))
      .field("max_active",
             static_cast<std::uint64_t>(lv.service.max_active))
      .field("deadline_us", lv.service.deadline_us)
      .field("admitted", r.admitted)
      .field("shed", r.shed)
      .field("completed", r.completed)
      .field("quarantined", r.quarantined)
      .field("retries", r.retries)
      .field("decisions", r.decisions)
      .field("timeouts", r.timeouts)
      .field("fallbacks", r.fallbacks)
      .field("duration_s", r.duration_s)
      .field("sessions_per_s", r.sessions_per_s)
      .field("decisions_per_s", r.decisions_per_s)
      .field("p50_decide_us", r.p50_decide_us)
      .field("p99_decide_us", r.p99_decide_us)
      .field("mean_makespan", r.mean_makespan)
      .field("arrival", serve::arrival_mode_name(lv.load.arrival));
  if (!lv.extra.empty()) j.raw("detail", lv.extra);
  return j.str();
}

}  // namespace

int main() {
  bench::BenchRun run("serve_latency");
  core::RunConfig base;
  base.agent.hidden = 32;
  core::RunConfig cfg = core::RunConfig::from_env(base);
  cfg.agent.seed = cfg.seed;

  rl::PolicyNet net(rl::StateEncoder::node_feature_width(4),
                    rl::StateEncoder::kResourceFeatureWidth, cfg.agent);

  std::printf("calibrating service capacity (closed loop)...\n");
  const double capacity = calibrate_capacity(net, cfg.agent, cfg);
  std::printf("  capacity ~= %.1f sessions/s\n", capacity);

  std::vector<Level> levels;
  {
    Level lv;
    lv.name = "underload";
    lv.service = base_service(cfg);
    lv.load.sessions = cfg.serve_sessions;
    lv.load.rate = std::max(1.0, 0.5 * capacity);
    lv.load.seed = cfg.seed;
    levels.push_back(lv);
  }
  {
    // Past the shedding threshold: 3x capacity into a queue of 8. The
    // acceptance bar is bounded degradation — shed counts grow, decide
    // latency stays flat, completed sessions keep flowing.
    Level lv;
    lv.name = "overload";
    lv.service = base_service(cfg);
    lv.service.queue_capacity = 8;
    lv.load.sessions = cfg.serve_sessions;
    lv.load.rate = std::max(2.0, 3.0 * capacity);
    lv.load.seed = cfg.seed + 1;
    levels.push_back(lv);
  }
  {
    // Tight per-decision budget: most batched forwards blow it, so
    // decisions degrade to one-shot MCT (timeout + fallback counters).
    Level lv;
    lv.name = "deadline";
    lv.service = base_service(cfg);
    lv.service.deadline_us = 50.0;
    lv.load.sessions = cfg.serve_sessions;
    lv.load.rate = std::max(1.0, 0.5 * capacity);
    lv.load.seed = cfg.seed + 2;
    levels.push_back(lv);
  }

  for (Level& lv : levels) {
    std::printf("level %-10s rate %.1f/s, queue %zu, deadline %.0f us...\n",
                lv.name.c_str(), lv.load.rate, lv.service.queue_capacity,
                lv.service.deadline_us);
    lv.report = run_level(net, cfg.agent, lv);
    std::printf(
        "  admitted %llu shed %llu completed %llu | %.1f sessions/s | "
        "p50 %.0f us p99 %.0f us | timeouts %llu fallbacks %llu\n",
        static_cast<unsigned long long>(lv.report.admitted),
        static_cast<unsigned long long>(lv.report.shed),
        static_cast<unsigned long long>(lv.report.completed),
        lv.report.sessions_per_s, lv.report.p50_decide_us,
        lv.report.p99_decide_us,
        static_cast<unsigned long long>(lv.report.timeouts),
        static_cast<unsigned long long>(lv.report.fallbacks));
  }
  const double underload_p99 = levels[0].report.p99_decide_us;

  // Level 4, "reload": the underload stream with a thread force-
  // publishing fresh weight snapshots the whole time. Workers adopt at
  // round boundaries, so the swap must not show up as a latency cliff.
  double reload_ratio = 0.0;
  {
    Level lv;
    lv.name = "reload";
    lv.service = base_service(cfg);
    // The storm republishes the same untrained net; an untrained policy
    // can trip the gate's MCT-sanity probe, and the gate's correctness
    // has its own suite (ctest -L reload). This level measures the swap
    // cost, so skip validation and publish every time.
    lv.service.reload.validate = false;
    lv.load.sessions = cfg.serve_sessions;
    lv.load.rate = std::max(1.0, 0.5 * capacity);
    lv.load.seed = cfg.seed + 3;
    std::printf("level %-10s rate %.1f/s + reload storm (force, 20 ms)...\n",
                lv.name.c_str(), lv.load.rate);
    serve::DecisionService svc(net, cfg.agent, lv.service);
    std::atomic<bool> stop{false};
    std::uint64_t published = 0;
    std::thread reloader([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const serve::ReloadResult r = svc.reload(net, /*force=*/true);
        if (r.status == serve::ReloadStatus::kPublished) ++published;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    lv.report = serve::run_poisson_load(svc, lv.load);
    stop.store(true, std::memory_order_relaxed);
    reloader.join();
    const std::uint64_t final_version = svc.active_weight_version();
    svc.shutdown();
    reload_ratio = underload_p99 > 0.0
                       ? lv.report.p99_decide_us / underload_p99
                       : 0.0;
    obs::JsonObject d;
    d.field("reloads_published", published)
        .field("final_weight_version", final_version)
        .field("p99_vs_underload", reload_ratio)
        .field("swap_bound_2x_ok", reload_ratio <= 2.0);
    lv.extra = d.str();
    std::printf(
        "  published %llu snapshots (final v%llu) | p99 %.0f us = %.2fx "
        "no-reload p99 (%s 2x bound)\n",
        static_cast<unsigned long long>(published),
        static_cast<unsigned long long>(final_version),
        lv.report.p99_decide_us, reload_ratio,
        reload_ratio <= 2.0 ? "within" : "OVER");
    levels.push_back(lv);
  }

  // Level 5, "noisy": a bursty token-bucketed hog tenant and a steady
  // victim tenant share the service; the QoS layer (bucket at submit,
  // DRR dequeue, hog-first eviction) must aim the sheds at the hog.
  double hog_shed_share = 0.0;
  {
    Level lv;
    lv.name = "noisy";
    lv.service = base_service(cfg);
    lv.service.queue_capacity = 16;
    serve::TenantPolicy hog_policy;
    hog_policy.rate_per_s = std::max(1.0, 0.25 * capacity);
    hog_policy.burst = 4.0;
    lv.service.tenants["hog"] = hog_policy;

    serve::LoadGenConfig hog;
    hog.sessions = cfg.serve_sessions;
    hog.rate = std::max(2.0, 2.0 * capacity);
    hog.seed = cfg.seed + 4;
    hog.tenant = "hog";
    hog.arrival = serve::ArrivalMode::kBursty;
    hog.wait_idle = false;  // the victim generator waits for idle once

    lv.load.sessions = cfg.serve_sessions;
    lv.load.rate = std::max(1.0, 0.4 * capacity);
    lv.load.seed = cfg.seed + 5;
    lv.load.tenant = "victim";

    std::printf(
        "level %-10s victim %.1f/s (poisson) vs hog %.1f/s (bursty, "
        "bucket %.1f/s)...\n",
        lv.name.c_str(), lv.load.rate, hog.rate, hog_policy.rate_per_s);
    serve::DecisionService svc(net, cfg.agent, lv.service);
    std::thread hog_thread([&] { (void)serve::run_poisson_load(svc, hog); });
    // The hog offers 5x faster, so it finishes submitting first and the
    // victim's wait_idle covers both tenants' tails.
    lv.report = serve::run_poisson_load(svc, lv.load);
    hog_thread.join();
    svc.wait_idle();
    const auto tenants = svc.tenant_counters();
    svc.shutdown();
    lv.report.offered = hog.sessions + lv.load.sessions;
    const auto vc = tenants.count("victim") ? tenants.at("victim")
                                            : serve::DecisionService::TenantCounters{};
    const auto hc = tenants.count("hog") ? tenants.at("hog")
                                         : serve::DecisionService::TenantCounters{};
    const std::uint64_t total_shed = vc.shed + hc.shed;
    hog_shed_share = total_shed > 0
                         ? static_cast<double>(hc.shed) /
                               static_cast<double>(total_shed)
                         : 1.0;
    obs::JsonObject d;
    d.field("victim_arrival", "poisson")
        .field("hog_arrival", serve::arrival_mode_name(hog.arrival))
        .field("hog_rate_limit_per_s", hog_policy.rate_per_s)
        .field("victim_admitted", vc.admitted)
        .field("victim_shed", vc.shed)
        .field("victim_completed", vc.completed)
        .field("hog_admitted", hc.admitted)
        .field("hog_shed", hc.shed)
        .field("hog_completed", hc.completed)
        .field("hog_shed_share", hog_shed_share)
        .field("hog_absorbs_80pct_ok", hog_shed_share >= 0.8);
    lv.extra = d.str();
    std::printf(
        "  victim admitted %llu shed %llu | hog admitted %llu shed %llu | "
        "hog absorbs %.0f%% of sheds (%s 80%% bar)\n",
        static_cast<unsigned long long>(vc.admitted),
        static_cast<unsigned long long>(vc.shed),
        static_cast<unsigned long long>(hc.admitted),
        static_cast<unsigned long long>(hc.shed), 100.0 * hog_shed_share,
        hog_shed_share >= 0.8 ? "meets" : "MISSES");
    levels.push_back(lv);
  }

  const char* path = "BENCH_serve_latency.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::string levels_json = "[";
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (i > 0) levels_json += ",";
      levels_json += level_json(levels[i]);
    }
    levels_json += "]";
    obs::JsonObject j;
    j.field("bench", "serve_latency")
        .field("capacity_sessions_per_s", capacity)
        .field("sessions_per_level", cfg.serve_sessions)
        .field("max_active", cfg.serve_active)
        .field("workers", std::max(1, cfg.serve_workers))
        .field("hidden", cfg.agent.hidden)
        .field("seed", cfg.seed)
        .field("catalog", "cholesky/lu/qr, tiles 3-5, sigma 0.1")
        .raw("levels", levels_json);
    std::fprintf(f, "%s\n", j.str().c_str());
    std::fclose(f);
    std::printf("baseline written to %s\n", path);
  } else {
    std::perror(path);
    return 1;
  }
  run.manifest.set("capacity_sessions_per_s", capacity);
  run.manifest.set("arrival_modes", "poisson; noisy hog uses bursty (MMPP)");
  run.manifest.set("reload_p99_vs_underload", reload_ratio);
  run.manifest.set("noisy_hog_shed_share", hog_shed_share);
  run.finish(path);
  return 0;
}
