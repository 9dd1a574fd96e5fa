// readys_bench: one benchmark for the decision service, the simulator, the
// MCT scheduler and the A2C trainer.
//
//   readys_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//                [--scale <x>] [--out <path>]
//   readys_bench --list
//
// One invocation runs one workload on this thread (no worker threads, no
// thread pool). It sets the workload up kSetups times (the median is
// setup_s), runs one untimed warm-up repetition that fills every cache the
// steady state relies on (the service's graph cache, the f32 weight
// snapshot and arena, the HEFT references), then repeats identical fixed
// work until --seconds of measurement have passed, at least kMinReps
// times. Each end-to-end metric is the median over the repetitions.
//
// With --trace 1 the same repetitions run untraced and then traced, and
// the per-layer metrics are printed instead. Tracing times the public call
// into each layer from the harness; nothing in src/ is instrumented.
//
// Output checks run outside the timed windows. The last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when every check passed. Bad command-line
// input exits 2 naming the flag.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/readys.hpp"
#include "obs/manifest.hpp"
#include "tensor/f32.hpp"

using namespace readys;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Metric tables. BENCHMARK.json names exactly these (smoke.py checks it).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"episodes_per_s", "1/s"},
    {"decisions_per_s", "1/s"},
    {"decide_p50_us", "us"},
    {"decide_p99_us", "us"},
    {"mean_makespan_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"ledger.us_per_decision", "us"},
    {"ledger.serve_pct", "%"},
    {"ledger.encode_pct", "%"},
    {"ledger.infer_pct", "%"},
    {"ledger.sched_pct", "%"},
    {"ledger.sim_pct", "%"},
    {"ledger.train_pct", "%"},
    {"ledger.residual_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"serve.round_sessions.mean", "count"},
    {"serve.queue_depth.mean", "count"},
    {"infer.rows_per_obs.mean", "count"},
    {"encode.window_reuse_ratio", "ratio"},
    {"encode.ahat_reuse_ratio", "ratio"},
    {"sched.calls_per_task", "count"},
};

constexpr const char* kWorkloads[] = {"serve_mixed", "sim_wide_mct",
                                      "sim_cholesky_mct", "train_a2c_vec8"};

constexpr int kSetups = 15;  // set-ups per run; setup_s is their median
constexpr int kMinReps = 3;  // timed repetitions per phase, at least

// ---------------------------------------------------------------------------
// Command line. Strict: an unknown flag, a missing value or a malformed
// number exits 2 naming the flag (util::env_int-style fallbacks would
// silently measure something else).

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 25.0;  // BENCHMARK.json run_seconds
  bool trace = false;
  double scale = 1.0;
  std::string out;
  bool list = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "readys_bench: %s\n"
               "usage: readys_bench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--scale <x>] [--out <path>]\n"
               "       readys_bench --list\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, std::string_view text) {
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
    usage_error(flag + ": malformed unsigned integer '" + std::string(text) +
                "'");
  }
  return v;
}

double parse_double(const std::string& flag, std::string_view text) {
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size() ||
      !std::isfinite(v)) {
    usage_error(flag + ": malformed number '" + std::string(text) + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--scale" && flag != "--out") {
      usage_error("unknown flag '" + flag + "'");
    }
    if (i + 1 >= argc) usage_error(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
      a.have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_double(flag, value);
      if (a.seconds < 0.0 || a.seconds > 3600.0) {
        usage_error("--seconds: must be in [0, 3600], got " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("--trace: must be 0 or 1, got '" + value + "'");
      }
      a.trace = value == "1";
    } else if (flag == "--scale") {
      a.scale = parse_double(flag, value);
      if (a.scale <= 0.0 || a.scale > 100.0) {
        usage_error("--scale: must be in (0, 100], got " + value);
      }
    } else {
      a.out = value;
    }
  }
  if (a.list) return a;
  if (a.workload.empty()) usage_error("--workload: required");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads)) {
    usage_error("--workload: unknown workload '" + a.workload + "'");
  }
  if (!a.have_seed) usage_error("--seed: required");
  return a;
}

/// Per-repetition work size: the base size times --scale, at least `min`.
int scaled(int base, double scale, int min = 1) {
  return std::max(min, static_cast<int>(std::lround(base * scale)));
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// This process's resident-set high-water mark, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries the parent's peak into it across
/// fork and exec, so it would report the launcher's memory.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------------------
// Failures: every failed check is printed once and counted.

struct Checks {
  long failed = 0;

  void fail(const std::string& what) {
    if (failed < 20) {
      std::fprintf(stderr, "readys_bench: FAILED %s\n", what.c_str());
    }
    ++failed;
  }
};

// ---------------------------------------------------------------------------
// Tracing. Spans stay in memory and are written once, at exit, as Chrome
// trace events (Perfetto loads them). Each span names the repetition that
// caused it and the session or episode it served.

class SpanLog {
 public:
  void begin_rep(std::uint32_t rep) { rep_ = rep; }

  void record(const char* name, std::uint64_t id, Clock::time_point t0,
              Clock::time_point t1) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, id, rep_, us(t0), us(t1) - us(t0)});
  }

  std::size_t dropped() const noexcept { return dropped_; }

  void write(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rep\":%u,"
                    "\"id\":%llu}}%s\n",
                    s.name, s.start_us, s.dur_us, s.rep,
                    static_cast<unsigned long long>(s.id),
                    i + 1 < spans_.size() ? "," : "");
      f << line;
    }
    f << "]}\n";
    if (!f) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint32_t rep;
    double start_us;
    double dur_us;
  };
  static constexpr std::size_t kMaxSpans = 1u << 18;

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::uint32_t rep_ = 0;
};

/// Runs f() and returns its wall time in seconds.
template <typename F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// timed(), also recorded as a span when `spans` is set.
template <typename F>
double timed(SpanLog* spans, const char* name, std::uint64_t id, F&& f) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  if (spans != nullptr) spans->record(name, id, t0, t1);
  return seconds_between(t0, t1);
}

/// Where the traced repetitions' time went. Stages are attributed to the
/// layers by module name; what no stage covers is the residual.
enum Layer { kServe, kEncode, kInfer, kSched, kSim, kTrain, kLayers };

struct Ledger {
  SpanLog* spans = nullptr;  ///< null unless --out was given
  double wall_s = 0.0;       ///< time the stages are shares of
  double decisions = 0.0;
  double layer_s[kLayers] = {};
  double rounds = 0.0, round_sessions = 0.0, queue_depth = 0.0;
  double observations = 0.0, rows = 0.0;
  double window_reuses = 0.0, window_rebuilds = 0.0, ahat_reuses = 0.0;
  double sched_calls = 0.0, tasks = 0.0;
};

/// What one repetition measured.
struct Rep {
  double episodes_per_s = 0.0;
  double decisions_per_s = 0.0;
  std::vector<double> decide_us;  ///< per-decision latency samples
  // Summary of decide_us, filled by repeat(), which then frees the samples
  // so memory does not grow with the number of repetitions.
  double decide_p50_us = 0.0;
  double decide_p99_us = 0.0;
  std::size_t decide_samples = 0;
  double makespan_sum = 0.0;
  double makespans = 0.0;
  long attempted = 0;
};

/// A workload: set-up shared by its repetitions, and one repetition of
/// fixed work. A non-null ledger traces the repetition.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual Rep run(Ledger* ledger, Checks& checks) = 0;
};

/// Times decide() at instants with at least one ready task; instants with
/// nothing ready are pure clock advances and are passed through untimed.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(sim::Scheduler& inner, std::vector<double>& samples_us)
      : inner_(inner), samples_us_(samples_us) {}

  void reset(const sim::EngineView& view) override { inner_.reset(view); }

  std::vector<sim::Assignment> decide(const sim::EngineView& view) override {
    ++calls_;
    if (view.ready().empty()) return inner_.decide(view);
    const auto t0 = Clock::now();
    std::vector<sim::Assignment> out = inner_.decide(view);
    const double s = seconds_since(t0);
    busy_s_ += s;
    samples_us_.push_back(s * 1e6);
    return out;
  }

  std::string name() const override { return "timed:" + inner_.name(); }

  double busy_s() const noexcept { return busy_s_; }
  std::uint64_t calls() const noexcept { return calls_; }

 private:
  sim::Scheduler& inner_;
  std::vector<double>& samples_us_;
  double busy_s_ = 0.0;
  std::uint64_t calls_ = 0;
};

/// Trace::validate orders each resource's entries by start time alone, so
/// a task the noise model cut to zero duration (d = max(0, N(E, sigma E)))
/// that starts at the same instant as the next task on its resource can be
/// reported as an overlap, depending on how the sort breaks the tie.
/// Zero-length entries occupy no time, so moving them to a spare resource
/// leaves exclusivity unchanged; dependencies are still checked for every
/// entry.
std::string validate_schedule(const sim::Trace& trace,
                              const dag::TaskGraph& graph,
                              const sim::Platform& platform) {
  std::vector<sim::ResourceType> types = platform.resources();
  types.push_back(sim::ResourceType::kCpu);
  const sim::Platform with_spare(types);
  sim::Trace copy;
  for (sim::TraceEntry e : trace.entries()) {
    if (e.finish == e.start) e.resource = platform.size();
    copy.add(e);
  }
  return copy.validate(graph, with_spare);
}

void check_episode(Checks& checks, const std::string& where,
                   const sim::SimResult& r, const dag::TaskGraph& graph,
                   const sim::Platform& platform, bool validate) {
  if (!std::isfinite(r.makespan) || r.makespan <= 0.0) {
    checks.fail(where + ": non-finite or non-positive makespan");
  }
  if (validate) {
    const std::string err = validate_schedule(r.trace, graph, platform);
    if (!err.empty()) checks.fail(where + ": invalid trace: " + err);
  }
}

// ---------------------------------------------------------------------------
// serve_mixed: the decision service in pump mode under a closed loop.

class ServeMixed final : public Workload {
 public:
  ServeMixed(std::uint64_t seed, double scale)
      : seed_(seed), sessions_(scaled(kSessions, scale, kClients)) {
    agent_.hidden = 32;
    agent_.window = 2;
    agent_.seed = 1;  // the served weights are part of the program, not input
  }

  void setup() override {
    svc_.reset();
    net_ = std::make_unique<rl::PolicyNet>(
        rl::StateEncoder::node_feature_width(4),
        rl::StateEncoder::kResourceFeatureWidth, agent_);
    serve::ServiceConfig sc;
    sc.cpus = 2;
    sc.gpus = 2;
    sc.queue_capacity = 32;
    sc.max_active = 8;
    sc.workers = 0;  // pump mode: the round a worker runs, on this thread
    sc.deadline_us = -1.0;
    sc.inference_backend = rl::InferenceBackendKind::kF32Simd;
    sc.incremental_encoding = true;
    svc_ = std::make_unique<serve::DecisionService>(*net_, agent_, sc);
    specs_ = make_specs();
    replay_backend_.reset();
  }

  Rep run(Ledger* ledger, Checks& checks) override {
    Rep rep;
    rep.attempted = sessions_;
    const serve::DecisionService::Counters before = svc_->counters();
    Loop loop = closed_loop(ledger, checks, rep);
    const serve::DecisionService::Counters after = svc_->counters();

    const double completed =
        static_cast<double>(after.completed - before.completed);
    const double decisions =
        static_cast<double>(after.decisions - before.decisions);
    rep.episodes_per_s = completed / loop.wall_s;
    rep.decisions_per_s = decisions / loop.wall_s;

    // Output checks: every session completed (none shed, quarantined or
    // aborted) with a finite makespan.
    if (after.shed != before.shed || after.quarantined != before.quarantined ||
        after.aborted != before.aborted || after.retries != before.retries ||
        after.fallbacks != before.fallbacks) {
      checks.fail("serve_mixed: sessions shed, quarantined, aborted, retried "
                  "or degraded");
    }
    std::vector<double> makespans;
    for (const serve::SessionResult& r : svc_->results()) {
      if (r.id < loop.first_id) continue;
      if (r.state != serve::SessionState::kCompleted) {
        checks.fail("serve_mixed: session " + std::to_string(r.id) + " " +
                    serve::session_state_name(r.state) + ": " + r.error);
      }
      if (!std::isfinite(r.makespan) || r.makespan <= 0.0) {
        checks.fail("serve_mixed: non-finite makespan");
      }
      makespans.push_back(r.makespan);
      rep.makespan_sum += r.makespan;
    }
    rep.makespans = static_cast<double>(makespans.size());
    if (makespans.size() != static_cast<std::size_t>(sessions_)) {
      checks.fail("serve_mixed: " + std::to_string(makespans.size()) + " of " +
                  std::to_string(sessions_) + " sessions retired");
    }
    if (ledger != nullptr) {
      ledger->wall_s += loop.wall_s;
      ledger->decisions += decisions;
      ledger->layer_s[kServe] += loop.submit_s + loop.pump_s;
      replay(*ledger, checks, makespans, decisions);
    }
    return rep;
  }

 private:
  static constexpr int kSessions = 120;  // per repetition at --scale 1
  static constexpr int kClients = 16;    // closed loop: sessions in flight

  struct Loop {
    double wall_s = 0.0;
    double submit_s = 0.0;  ///< traced only
    double pump_s = 0.0;    ///< traced only
    std::uint64_t first_id = 0;
  };

  /// Catalog mix: every (app, tiles) pair once per block of 15, block order
  /// and per-session seeds drawn from the workload seed. A stratified mix
  /// keeps the work per repetition the same for every seed, so seeds move
  /// the noise and the order, not the amount of work.
  std::vector<serve::SessionSpec> make_specs() const {
    static constexpr core::App kApps[] = {core::App::kCholesky,
                                          core::App::kLu, core::App::kQr};
    std::vector<serve::SessionSpec> block;
    for (const core::App app : kApps) {
      for (int tiles = 4; tiles <= 8; ++tiles) {
        serve::SessionSpec s;
        s.app = app;
        s.tiles = tiles;
        s.sigma = 0.1;
        s.deadline_us = -1.0;  // decisions must not depend on the clock
        block.push_back(s);
      }
    }
    util::Rng rng(seed_);
    std::vector<serve::SessionSpec> specs;
    while (specs.size() < static_cast<std::size_t>(sessions_)) {
      rng.shuffle(block);
      for (serve::SessionSpec s : block) {
        if (specs.size() == static_cast<std::size_t>(sessions_)) break;
        s.seed = rng();
        specs.push_back(s);
      }
    }
    return specs;
  }

  /// kClients clients each keep one session in the service: the loop
  /// submits kClients sessions, then after every pump() one new session per
  /// retired one. pump() runs exactly a worker's decision round, and its
  /// duration is charged to every decision it made.
  Loop closed_loop(Ledger* ledger, Checks& checks, Rep& rep) {
    SpanLog* spans = ledger != nullptr ? ledger->spans : nullptr;
    Loop loop;
    std::size_t next = 0;
    std::uint64_t retired = 0;
    const serve::DecisionService::Counters base = svc_->counters();
    const auto submit = [&] {
      const serve::SessionSpec& spec = specs_[next++];
      serve::DecisionService::Admission adm;
      if (ledger != nullptr) {
        loop.submit_s += timed(spans, "serve/submit", next,
                               [&] { adm = svc_->submit(spec); });
      } else {
        adm = svc_->submit(spec);
      }
      if (!adm.admitted) {
        checks.fail("serve_mixed: submit shed: " + adm.reason);
      } else if (loop.first_id == 0) {
        loop.first_id = adm.id;
      }
    };
    const auto t0 = Clock::now();
    while (next < specs_.size() && next < static_cast<std::size_t>(kClients)) {
      submit();
    }
    while (retired < static_cast<std::uint64_t>(sessions_)) {
      if (ledger != nullptr) {
        ledger->queue_depth += static_cast<double>(svc_->queue_depth());
      }
      const auto p0 = Clock::now();
      const std::size_t stepped = svc_->pump();
      const auto p1 = Clock::now();
      if (stepped == 0) {
        checks.fail("serve_mixed: pump() made no progress");
        break;
      }
      const double us = seconds_between(p0, p1) * 1e6;
      rep.decide_us.insert(rep.decide_us.end(), stepped, us);
      if (ledger != nullptr) {
        if (spans != nullptr) spans->record("serve/pump", stepped, p0, p1);
        loop.pump_s += us * 1e-6;
        ledger->rounds += 1.0;
        ledger->round_sessions += static_cast<double>(stepped);
      }
      const serve::DecisionService::Counters c = svc_->counters();
      retired = (c.completed - base.completed) +
                (c.quarantined - base.quarantined) +
                (c.aborted - base.aborted);
      while (next < specs_.size() &&
             next - retired < static_cast<std::uint64_t>(kClients)) {
        submit();
      }
    }
    loop.wall_s = seconds_since(t0);
    return loop;
  }

  /// Traced only: replays the repetition outside the service with the same
  /// public pieces (serve::Session, the f32simd backend over the same
  /// weights, argmax, SchedulingEnv::step) and a shadow IncrementalEncoder
  /// fed the same engine states, timing each. The replay must reproduce
  /// the service's decision count and every makespan bit for bit — the
  /// proof that the stage times describe the work the service did. The
  /// replay's stages then split the service's pump time: forward + argmax
  /// to rl.infer, the shadow encode to rl.encode, step minus encode to
  /// sim, and the rest of pump() (the service's own bookkeeping) stays
  /// with serve.
  void replay(Ledger& ledger, Checks& checks,
              const std::vector<double>& service_makespans,
              double service_decisions) {
    SpanLog* spans = ledger.spans;
    if (!replay_backend_) {
      replay_backend_ = rl::make_inference_backend(
          *net_, rl::InferenceBackendKind::kF32Simd);
    }
    struct Live {
      std::size_t index;
      std::unique_ptr<serve::Session> session;
      std::unique_ptr<rl::IncrementalEncoder> shadow;
    };
    std::deque<Live> queue;
    std::vector<double> makespans(specs_.size(), 0.0);
    std::size_t next = 0;
    std::size_t retired = 0;
    double decisions = 0.0;
    double forward_s = 0.0, select_s = 0.0, step_s = 0.0, encode_s = 0.0;
    const auto submit = [&] {
      const serve::SessionSpec& spec = specs_[next];
      auto& graph = graphs_[{static_cast<int>(spec.app), spec.tiles}];
      if (!graph) {
        graph = std::make_shared<const dag::TaskGraph>(
            core::make_graph(spec.app, spec.tiles));
      }
      Live live{next, nullptr, nullptr};
      live.session = std::make_unique<serve::Session>(
          next + 1, spec, svc_->platform(), graph, agent_.window, 0, true);
      live.shadow = std::make_unique<rl::IncrementalEncoder>(
          *graph, core::make_costs(spec.app), agent_.window);
      const rl::Observation& o = live.session->observation();
      live.shadow->encode(live.session->env().engine(), o.current_resource,
                          o.allow_idle);
      queue.push_back(std::move(live));
      ++next;
    };
    while (next < specs_.size() && next < static_cast<std::size_t>(kClients)) {
      submit();
    }
    std::vector<Live> batch;
    std::vector<const rl::Observation*> obs;
    std::vector<rl::InferenceOutput> outs;
    while (retired < specs_.size()) {
      batch.clear();
      while (!queue.empty() && batch.size() < 8) {
        batch.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      if (batch.empty()) break;
      obs.clear();
      for (const Live& l : batch) {
        obs.push_back(&l.session->observation());
        ledger.rows +=
            static_cast<double>(l.session->observation().window.size());
      }
      ledger.observations += static_cast<double>(batch.size());
      forward_s += timed(spans, "rl.infer/forward_batched", batch.size(),
                         [&] { replay_backend_->forward_batched(obs, outs); });
      std::vector<Live> keep;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Live& l = batch[i];
        std::size_t action = 0;
        select_s += timed([&] {
          const std::vector<double>& p = outs[i].probs;
          action = static_cast<std::size_t>(
              std::max_element(p.begin(), p.end()) - p.begin());
        });
        rl::SchedulingEnv::StepResult sr;
        step_s += timed([&] { sr = l.session->env().step(action); });
        decisions += 1.0;
        if (sr.done) {
          makespans[l.index] = l.session->env().makespan();
          ledger.window_reuses +=
              static_cast<double>(l.shadow->window_reuses());
          ledger.window_rebuilds +=
              static_cast<double>(l.shadow->window_rebuilds());
          ledger.ahat_reuses += static_cast<double>(l.shadow->ahat_reuses());
          ++retired;
          continue;
        }
        const rl::Observation& o = l.session->observation();
        encode_s += timed([&] {
          l.shadow->encode(l.session->env().engine(), o.current_resource,
                           o.allow_idle);
        });
        keep.push_back(std::move(l));
      }
      for (auto it = keep.rbegin(); it != keep.rend(); ++it) {
        queue.push_front(std::move(*it));
      }
      while (next < specs_.size() &&
             next - retired < static_cast<std::size_t>(kClients)) {
        submit();
      }
    }
    if (decisions != service_decisions) {
      checks.fail("serve_mixed: replay made " + std::to_string(decisions) +
                  " decisions, the service " +
                  std::to_string(service_decisions));
    }
    for (std::size_t i = 0; i < specs_.size() && i < service_makespans.size();
         ++i) {
      if (makespans[i] != service_makespans[i]) {
        checks.fail("serve_mixed: replay makespan differs for session " +
                    std::to_string(i));
        break;
      }
    }
    const double pump_parts = forward_s + select_s + step_s;
    ledger.layer_s[kServe] -= pump_parts;
    ledger.layer_s[kInfer] += forward_s + select_s;
    ledger.layer_s[kEncode] += encode_s;
    ledger.layer_s[kSim] += step_s - encode_s;
  }

  std::uint64_t seed_;
  int sessions_;
  rl::AgentConfig agent_;
  std::unique_ptr<rl::PolicyNet> net_;
  std::unique_ptr<serve::DecisionService> svc_;
  std::vector<serve::SessionSpec> specs_;
  // The replay's own graph cache and backend (traced runs only).
  std::map<std::pair<int, int>, std::shared_ptr<const dag::TaskGraph>> graphs_;
  std::unique_ptr<rl::InferenceBackend> replay_backend_;
};

// ---------------------------------------------------------------------------
// sim_wide_mct / sim_cholesky_mct: the simulator driving registry "mct".

class SimMct final : public Workload {
 public:
  enum class Shape { kWide, kCholesky };

  SimMct(Shape shape, std::uint64_t seed, double scale)
      : shape_(shape),
        seed_(seed),
        episodes_(scaled(shape == Shape::kWide ? 3 : 640, scale, 2)),
        sigma_(shape == Shape::kWide ? 0.1 : 0.3) {}

  void setup() override {
    if (shape_ == Shape::kWide) {
      // bench/cluster_scale's instance at P = 1024, DAG seed included: six
      // layers of 2P tasks, mean in-degree ~4, so ready batches scale with
      // P. The DAG is fixed like cholesky_graph(20) is; the workload seed
      // drives the duration noise. (Random DAGs drawn per seed moved
      // decisions/s by over 20% between seeds.)
      constexpr int kResources = 1024;
      dag::RandomDagConfig cfg;
      cfg.layers = 6;
      cfg.width = 2 * kResources;
      cfg.edge_density = 4.0 / static_cast<double>(cfg.width);
      cfg.kernel_types = 4;
      cfg.connect_layers = true;
      util::Rng rng(0x5ca1eull + kResources);
      graph_ =
          std::make_unique<dag::TaskGraph>(dag::random_layered_dag(cfg, rng));
      platform_ = std::make_unique<sim::Platform>(
          sim::Platform::hybrid(kResources / 2, kResources / 2));
    } else {
      graph_ = std::make_unique<dag::TaskGraph>(dag::cholesky_graph(20));
      platform_ = std::make_unique<sim::Platform>(sim::Platform::hybrid(2, 2));
    }
  }

  Rep run(Ledger* ledger, Checks& checks) override {
    Rep rep;
    rep.attempted = episodes_;
    const double tasks = static_cast<double>(graph_->num_tasks());
    double wall_s = 0.0;  // untimed-decide episodes (all of them when traced)
    double counted = 0.0;
    double run_s = 0.0, decide_s = 0.0, calls = 0.0;
    // Episode seeds come from the workload seed; every repetition replays
    // the same ones, so makespans repeat exactly.
    const std::uint64_t base = seed_ * 1'000'003ull;
    for (int k = 0; k < episodes_; ++k) {
      const std::uint64_t seed = base + static_cast<std::uint64_t>(k);
      // Every kSampleEvery-th episode times its decide() calls for the
      // latency percentiles; the others run undecorated and carry the
      // throughput. Traced repetitions time every call.
      const bool sampled = ledger != nullptr || k % kSampleEvery == 0;
      sim::SimResult r;
      const auto t0 = Clock::now();
      sched::SchedulerConfig sc;
      sc.seed = seed;
      auto mct = sched::make_scheduler("mct", sc);
      sim::Simulator::Options opt;
      opt.sigma = sigma_;
      opt.seed = seed;
      sim::Simulator sim(*graph_, *platform_, cost_model(), opt);
      if (sampled) {
        TimedScheduler timed_mct(*mct, rep.decide_us);
        const auto r0 = Clock::now();
        r = sim.run(timed_mct);
        const auto r1 = Clock::now();
        run_s += seconds_between(r0, r1);
        decide_s += timed_mct.busy_s();
        calls += static_cast<double>(timed_mct.calls());
        if (ledger != nullptr && ledger->spans != nullptr) {
          ledger->spans->record("sim/episode", seed, r0, r1);
        }
      } else {
        r = sim.run(*mct);
      }
      const double episode_s = seconds_since(t0);
      if (!sampled || ledger != nullptr) {
        wall_s += episode_s;
        counted += 1.0;
      }
      check_episode(checks, kName(), r, *graph_, *platform_, k == 0);
      rep.makespan_sum += r.makespan;
      rep.makespans += 1.0;
    }
    rep.episodes_per_s = counted / wall_s;
    rep.decisions_per_s = counted * tasks / wall_s;
    if (ledger != nullptr) {
      // Engine time is the episode run minus the scheduler's decide()
      // calls (by subtraction); scheduler and simulator construction per
      // episode is left as the residual.
      ledger->wall_s += wall_s;
      ledger->decisions += counted * tasks;
      ledger->tasks += counted * tasks;
      ledger->sched_calls += calls;
      ledger->layer_s[kSched] += decide_s;
      ledger->layer_s[kSim] += run_s - decide_s;
    }
    return rep;
  }

 private:
  static constexpr int kSampleEvery = 8;

  const char* kName() const {
    return shape_ == Shape::kWide ? "sim_wide_mct" : "sim_cholesky_mct";
  }
  static const sim::CostModel& cost_model() {
    static const sim::CostModel costs = sim::CostModel::cholesky();
    return costs;
  }

  Shape shape_;
  std::uint64_t seed_;
  int episodes_;
  double sigma_;
  std::unique_ptr<dag::TaskGraph> graph_;
  std::unique_ptr<sim::Platform> platform_;
};

// ---------------------------------------------------------------------------
// train_a2c_vec8: vectorized A2C training, then the trained policy deployed.

class TrainA2c final : public Workload {
 public:
  TrainA2c(std::uint64_t seed, double scale)
      : seed_(seed),
        episodes_(scaled(192, scale, 8)),
        eval_episodes_(scaled(128, scale, 2)) {
    agent_.hidden = 32;
    agent_.seed = 1;
  }

  void setup() override {
    graph_ = std::make_unique<dag::TaskGraph>(dag::cholesky_graph(4));
    platform_ = std::make_unique<sim::Platform>(sim::Platform::hybrid(2, 2));
    costs_ = std::make_unique<sim::CostModel>(sim::CostModel::cholesky());
    const int nf =
        rl::StateEncoder::node_feature_width(graph_->num_kernel_types());
    net_ = std::make_unique<rl::PolicyNet>(
        nf, rl::StateEncoder::kResourceFeatureWidth, agent_);
    initial_weights_ = nn::serialize_parameters(*net_);
  }

  Rep run(Ledger* ledger, Checks& checks) override {
    Rep rep;
    rep.attempted = episodes_ + eval_episodes_;
    // Every repetition trains the same fresh net on the same episodes.
    nn::deserialize_parameters(*net_, initial_weights_);
    rl::A2CTrainer trainer(*net_, agent_);
    rl::VecEnv envs(*graph_, *platform_, *costs_, env_config(), kEnvs);
    rl::TrainOptions opts;
    opts.episodes = episodes_;
    opts.sigma = kSigma;
    opts.seed = train_seed();
    rl::TrainReport report;
    const double train_s = timed(ledger != nullptr ? ledger->spans : nullptr,
                                 "rl.train/train", 0,
                                 [&] { report = trainer.train(envs, opts); });
    rep.episodes_per_s = static_cast<double>(episodes_) / train_s;
    if (report.episode_rewards.size() != static_cast<std::size_t>(episodes_)) {
      checks.fail("train_a2c_vec8: trained " +
                  std::to_string(report.episode_rewards.size()) + " of " +
                  std::to_string(episodes_) + " episodes");
    }
    for (double r : report.episode_rewards) {
      if (!std::isfinite(r)) {
        checks.fail("train_a2c_vec8: non-finite episode reward");
        break;
      }
    }
    for (std::size_t i = 0; i < report.skipped_updates; ++i) {
      checks.fail("train_a2c_vec8: update skipped (non-finite loss)");
    }

    // Deployment: the trained policy, greedy, under the simulator.
    double eval_s = 0.0, calls = 0.0;
    for (int k = 0; k < eval_episodes_; ++k) {
      const std::uint64_t seed = eval_seed() + static_cast<std::uint64_t>(k);
      rl::ReadysOptions ro;
      ro.seed = seed;
      rl::ReadysScheduler policy(*net_, agent_.window, ro);
      TimedScheduler timed_policy(policy, rep.decide_us);
      sim::Simulator::Options so;
      so.sigma = kSigma;
      so.seed = seed;
      sim::Simulator sim(*graph_, *platform_, *costs_, so);
      sim::SimResult r;
      eval_s += timed([&] { r = sim.run(timed_policy); });
      calls += static_cast<double>(timed_policy.calls());
      check_episode(checks, "train_a2c_vec8", r, *graph_, *platform_, k == 0);
      rep.makespan_sum += r.makespan;
      rep.makespans += 1.0;
    }
    const double tasks = static_cast<double>(graph_->num_tasks());
    rep.decisions_per_s = eval_episodes_ * tasks / eval_s;

    if (ledger != nullptr) {
      ledger->wall_s += train_s;
      ledger->decisions += episodes_ * tasks;
      ledger->tasks += eval_episodes_ * tasks;
      ledger->sched_calls += calls;
      shadow_rollout(*ledger, train_s);
    }
    return rep;
  }

 private:
  static constexpr std::size_t kEnvs = 8;
  static constexpr double kSigma = 0.3;

  /// The training job (initial weights and episode seeds) is fixed, like
  /// sim_wide_mct's DAG: what a training run costs depends on the policy it
  /// passes through, and drawing the training episodes per seed moved
  /// episodes/s by up to 20% between seeds. The workload seed draws the
  /// deployment episodes the trained policy is evaluated on.
  static std::uint64_t train_seed() { return 1; }
  std::uint64_t eval_seed() const { return seed_ * 1'000'003ull; }

  rl::SchedulingEnv::Config env_config() const {
    rl::SchedulingEnv::Config ec;
    ec.sigma = kSigma;
    ec.window = agent_.window;
    ec.seed = train_seed();
    return ec;
  }

  /// Traced only: a shadow 8-env rollout over the training run's episode
  /// seeds, with the initial weights, timing VecEnv reset/step, the
  /// batched no-grad forward and a shadow StateEncoder fed the same engine
  /// states. The trainer's own loop is not observable from outside, so
  /// its share is the training wall time minus the shadow's environment
  /// time, by subtraction: the rollout forward, the observation copies,
  /// the backward pass and Adam. train therefore has no residual.
  void shadow_rollout(Ledger& ledger, double train_s) {
    SpanLog* spans = ledger.spans;
    nn::deserialize_parameters(*net_, initial_weights_);
    rl::VecEnv envs(*graph_, *platform_, *costs_, env_config(), kEnvs);
    rl::StateEncoder shadow(*graph_, *costs_, agent_.window);
    util::Rng rng(agent_.seed);
    double env_s = 0.0, encode_s = 0.0;
    tensor::NoGradGuard no_grad;
    for (int ep = 0; ep < episodes_; ep += static_cast<int>(kEnvs)) {
      const int round = std::min(static_cast<int>(kEnvs), episodes_ - ep);
      std::vector<std::size_t> active;
      env_s += timed(spans, "sim/reset", static_cast<std::uint64_t>(ep), [&] {
        for (int e = 0; e < round; ++e) {
          envs.reset_one(static_cast<std::size_t>(e),
                         train_seed() + static_cast<std::uint64_t>(ep + e));
          active.push_back(static_cast<std::size_t>(e));
        }
      });
      while (!active.empty()) {
        const auto obs = envs.observations(active);
        for (const rl::Observation* o : obs) {
          ledger.rows += static_cast<double>(o->window.size());
        }
        ledger.observations += static_cast<double>(obs.size());
        const auto outs = net_->forward_batched(obs);
        std::vector<std::size_t> acts(active.size());
        for (std::size_t k = 0; k < active.size(); ++k) {
          acts[k] = rl::sample_categorical(outs[k].probs.value(), rng);
        }
        std::vector<rl::VecEnv::StepResult> results;
        env_s += timed(spans, "sim/step", static_cast<std::uint64_t>(ep),
                       [&] { results = envs.step(active, acts); });
        std::vector<std::size_t> next;
        for (std::size_t k = 0; k < active.size(); ++k) {
          if (results[k].done) continue;
          const rl::SchedulingEnv& env = envs.env(active[k]);
          const rl::Observation& o = env.observation();
          encode_s += timed([&] {
            (void)shadow.encode(env.engine(), o.current_resource, o.allow_idle);
          });
          next.push_back(active[k]);
        }
        active = std::move(next);
      }
    }
    ledger.layer_s[kEncode] += encode_s;
    ledger.layer_s[kSim] += env_s - encode_s;
    ledger.layer_s[kTrain] += train_s - env_s;
  }

  std::uint64_t seed_;
  int episodes_;
  int eval_episodes_;
  rl::AgentConfig agent_;
  std::unique_ptr<dag::TaskGraph> graph_;
  std::unique_ptr<sim::Platform> platform_;
  std::unique_ptr<sim::CostModel> costs_;
  std::unique_ptr<rl::PolicyNet> net_;
  std::string initial_weights_;
};

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "serve_mixed") {
    return std::make_unique<ServeMixed>(a.seed, a.scale);
  }
  if (a.workload == "sim_wide_mct") {
    return std::make_unique<SimMct>(SimMct::Shape::kWide, a.seed, a.scale);
  }
  if (a.workload == "sim_cholesky_mct") {
    return std::make_unique<SimMct>(SimMct::Shape::kCholesky, a.seed, a.scale);
  }
  return std::make_unique<TrainA2c>(a.seed, a.scale);
}

// ---------------------------------------------------------------------------
// Driver.

/// Repeats `w` until `seconds` have passed, at least kMinReps times. When
/// `rss_mb` is set it receives the peak RSS after the first kMinReps
/// repetitions: the service keeps every retired session's result, so a
/// peak taken after a time-bounded number of repetitions would measure the
/// host's speed as much as the program's memory.
std::vector<Rep> repeat(Workload& w, double seconds, Ledger* ledger,
                        Checks& checks, double* rss_mb = nullptr) {
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  while (static_cast<int>(reps.size()) < kMinReps ||
         seconds_since(t0) < seconds) {
    if (ledger != nullptr && ledger->spans != nullptr) {
      ledger->spans->begin_rep(static_cast<std::uint32_t>(reps.size()));
    }
    Rep r = w.run(ledger, checks);
    r.decide_p50_us = serve::percentile(r.decide_us, 50.0);
    r.decide_p99_us = serve::percentile(r.decide_us, 99.0);
    r.decide_samples = r.decide_us.size();
    std::vector<double>().swap(r.decide_us);
    reps.push_back(std::move(r));
    if (rss_mb != nullptr && static_cast<int>(reps.size()) == kMinReps) {
      *rss_mb = peak_rss_mb();
    }
  }
  return reps;
}

/// One stderr line per phase: repetitions, the spread of per-repetition
/// throughput, and the latency sample count behind each percentile.
void report_reps(const std::string& what, const std::vector<Rep>& reps) {
  std::vector<double> eps;
  std::size_t samples = 0;
  for (const Rep& r : reps) {
    eps.push_back(r.episodes_per_s);
    samples += r.decide_samples;
  }
  std::sort(eps.begin(), eps.end());
  std::fprintf(stderr,
               "readys_bench: %s: %zu repetitions, episodes/s min %.6g "
               "median %.6g max %.6g, %zu decide samples per repetition\n",
               what.c_str(), reps.size(), eps.front(), median(eps), eps.back(),
               samples / reps.size());
}

template <typename F>
double median_of(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(f(r));
  return median(xs);
}

std::map<std::string, double> end_to_end(const std::vector<Rep>& reps,
                                         double setup_s, double rss_mb) {
  std::map<std::string, double> m;
  m["setup_s"] = setup_s;
  m["episodes_per_s"] =
      median_of(reps, [](const Rep& r) { return r.episodes_per_s; });
  m["decisions_per_s"] =
      median_of(reps, [](const Rep& r) { return r.decisions_per_s; });
  m["decide_p50_us"] =
      median_of(reps, [](const Rep& r) { return r.decide_p50_us; });
  m["decide_p99_us"] =
      median_of(reps, [](const Rep& r) { return r.decide_p99_us; });
  m["mean_makespan_ms"] = median_of(reps, [](const Rep& r) {
    return r.makespans > 0.0 ? r.makespan_sum / r.makespans : 0.0;
  });
  m["peak_rss_mb"] = rss_mb;
  return m;
}

std::map<std::string, double> per_layer(const Ledger& l,
                                        const std::vector<Rep>& untraced,
                                        const std::vector<Rep>& traced) {
  const auto pct = [&](double s) {
    return l.wall_s > 0.0 ? 100.0 * s / l.wall_s : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::map<std::string, double> m;
  m["ledger.us_per_decision"] = 1e6 * ratio(l.wall_s, l.decisions);
  static const char* kLayerNames[kLayers] = {"serve", "encode", "infer",
                                             "sched", "sim",    "train"};
  double attributed = 0.0;
  for (int i = 0; i < kLayers; ++i) {
    m[std::string("ledger.") + kLayerNames[i] + "_pct"] = pct(l.layer_s[i]);
    attributed += l.layer_s[i];
  }
  m["ledger.residual_pct"] = pct(l.wall_s - attributed);
  const double plain =
      median_of(untraced, [](const Rep& r) { return r.episodes_per_s; });
  const double with_trace =
      median_of(traced, [](const Rep& r) { return r.episodes_per_s; });
  m["trace.overhead_pct"] = 100.0 * (ratio(plain, with_trace) - 1.0);
  m["serve.round_sessions.mean"] = ratio(l.round_sessions, l.rounds);
  m["serve.queue_depth.mean"] = ratio(l.queue_depth, l.rounds);
  m["infer.rows_per_obs.mean"] = ratio(l.rows, l.observations);
  m["encode.window_reuse_ratio"] =
      ratio(l.window_reuses, l.window_reuses + l.window_rebuilds);
  m["encode.ahat_reuse_ratio"] = ratio(l.ahat_reuses, l.window_rebuilds);
  m["sched.calls_per_task"] = ratio(l.sched_calls, l.tasks);
  return m;
}

std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

/// The result object: {"correct", "attempted", "failed", "metrics"}, in
/// the order of the metric table. Non-finite values print as 0 and fail.
template <std::size_t N>
std::string result_json(const MetricDef (&table)[N],
                        const std::map<std::string, double>& values,
                        long attempted, Checks& checks) {
  std::string metrics;
  for (const MetricDef& d : table) {
    double v = values.at(d.name);
    if (!std::isfinite(v)) {
      checks.fail(std::string("metric ") + d.name + " is not finite");
      v = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + d.name + "\": {\"value\": " +
               json_number(v) + ", \"unit\": \"" + d.unit + "\"}";
  }
  return std::string("{\"correct\": ") +
         (checks.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

void print_list() {
  std::printf("workloads:");
  for (const char* w : kWorkloads) std::printf(" %s", w);
  std::printf("\nend-to-end metrics (--trace 0):\n");
  for (const MetricDef& d : kEndToEnd) {
    std::printf("  %-28s %s\n", d.name, d.unit);
  }
  std::printf("per-layer metrics (--trace 1):\n");
  for (const MetricDef& d : kPerLayer) {
    std::printf("  %-28s %s\n", d.name, d.unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.list) {
    print_list();
    return 0;
  }
  Checks checks;
  std::string result;
  std::size_t reps_run = 0;
  SpanLog spans;
  try {
    std::unique_ptr<Workload> w = make_workload(args);
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      setups.push_back(timed([&] { w->setup(); }));
    }
    (void)w->run(nullptr, checks);  // warm-up: checked, not timed

    long attempted = 0;
    const auto count = [&](const std::vector<Rep>& reps) {
      for (const Rep& r : reps) attempted += r.attempted;
      reps_run += reps.size();
    };
    if (!args.trace) {
      double rss_mb = 0.0;
      const std::vector<Rep> reps =
          repeat(*w, args.seconds, nullptr, checks, &rss_mb);
      report_reps(args.workload, reps);
      count(reps);
      result = result_json(kEndToEnd, end_to_end(reps, median(setups), rss_mb),
                           attempted, checks);
    } else {
      Ledger ledger;
      if (!args.out.empty()) ledger.spans = &spans;
      const std::vector<Rep> plain =
          repeat(*w, args.seconds / 2.0, nullptr, checks);
      const std::vector<Rep> traced =
          repeat(*w, args.seconds / 2.0, &ledger, checks);
      report_reps(args.workload + " untraced", plain);
      report_reps(args.workload + " traced", traced);
      count(plain);
      count(traced);
      result = result_json(kPerLayer, per_layer(ledger, plain, traced),
                           attempted, checks);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "readys_bench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  if (!args.out.empty()) {
    try {
      std::ofstream f(args.out, std::ios::trunc);
      f << "{\"workload\": \"" << args.workload << "\", \"seed\": "
        << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"result\": " << result << "}\n";
      if (!f) throw std::runtime_error("cannot write " + args.out);
      if (args.trace) spans.write(args.out + ".trace.json");
      obs::RunManifest manifest("readys_bench");
      manifest.set("workload", args.workload);
      manifest.set("seed", std::to_string(args.seed));
      manifest.set("seconds", args.seconds);
      manifest.set("scale", args.scale);
      manifest.set("trace", args.trace);
      manifest.set("repetitions", static_cast<std::int64_t>(reps_run));
      manifest.set("isa", tensor::f32::isa_name(tensor::f32::active_isa()));
      manifest.set("spans_dropped",
                   static_cast<std::int64_t>(spans.dropped()));
      manifest.add_output(args.out);
      manifest.write(obs::RunManifest::sibling_path(args.out));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "readys_bench: --out: %s\n", e.what());
      return 1;
    }
  }
  std::printf("%s\n", result.c_str());
  return checks.failed == 0 ? 0 : 1;
}
