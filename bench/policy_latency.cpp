// Policy-latency baseline for the inference fast path (src/rl): times
// every READYS decision — incremental window encoding + policy forward +
// action selection — under both inference backends,
//
//   f64ref   PolicyNet::forward under no-grad, bit-exact with training
//   f32simd  float32 SIMD forward over the CSR view of Â, the path
//            serve/cluster default to
//
// and reports mean/p50/p95 microseconds per decision plus the speedup
// (f32simd vs f64ref) into BENCH_policy_latency.json (+ sibling
// manifest). A second phase times InferenceBackend::forward_batched
// against one-at-a-time forward() over harvested observations, the serve
// batching tradeoff.
//
// Decisions are timed in situ: a wrapper scheduler brackets decide()
// under a live Simulator run, so the encoder sees the real event stream
// (completions, ∅-declines) it is designed to exploit. The
// policy is an untrained seeded PolicyNet — latency does not depend on
// policy quality. Knobs:
//   READYS_TILES        Cholesky tile count (default 10)
//   READYS_EVAL_SEEDS   timed episodes per variant (default 5)
//   READYS_WINDOW       sub-DAG hop window (default 2)
//   READYS_HIDDEN       embedding width (default 32)
//   READYS_SEED         net + episode seed base (default 1)

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tensor/f32.hpp"

using namespace readys;

namespace {

using clock_type = std::chrono::steady_clock;

double us_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::micro>(clock_type::now() - t0)
      .count();
}

/// Brackets the inner scheduler's decide() with a steady_clock pair.
/// Ready-empty instants (pure clock advances, identical across variants)
/// are delegated untimed so they cannot dilute the per-decision samples.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(const rl::PolicyNet& net, int window, rl::ReadysOptions opts,
                 std::vector<double>* samples)
      : inner_(net, window, opts), samples_(samples) {}

  void reset(const sim::EngineView& view) override { inner_.reset(view); }

  std::vector<sim::Assignment> decide(const sim::EngineView& view) override {
    if (view.ready().empty()) return inner_.decide(view);
    const auto t0 = clock_type::now();
    std::vector<sim::Assignment> out = inner_.decide(view);
    if (samples_ != nullptr) samples_->push_back(us_since(t0));
    return out;
  }

  std::string name() const override { return "timed:" + inner_.name(); }

 private:
  rl::ReadysScheduler inner_;
  std::vector<double>* samples_;  ///< null during warmup
};

struct Variant {
  rl::InferenceBackendKind backend;
  std::vector<double> us;      ///< per-decision latencies
  double mean_makespan = 0.0;  ///< sanity: policy behavior, not speed
};

struct BatchedCell {
  std::string backend;
  std::size_t batch = 0;
  std::size_t decisions = 0;
  double mean_us = 0.0;
};

}  // namespace

int main() {
  bench::BenchRun run("policy_latency");
  const int tiles = util::env_int("READYS_TILES", 10);
  const int window = util::env_int("READYS_WINDOW", 2);
  const int episodes = util::env_int("READYS_EVAL_SEEDS", 5);
  const std::uint64_t seed = util::env_uint64("READYS_SEED", 1);

  rl::AgentConfig agent;
  agent.hidden = util::env_int("READYS_HIDDEN", 32);
  agent.window = window;
  agent.seed = seed;
  rl::PolicyNet net(rl::StateEncoder::node_feature_width(4),
                    rl::StateEncoder::kResourceFeatureWidth, agent);

  const auto graph = core::make_graph(core::App::kCholesky, tiles);
  const auto costs = core::make_costs(core::App::kCholesky);
  const auto platform = sim::Platform::hybrid(2, 2);
  const double sigma = 0.3;  // perturbed runtimes keep the event stream busy

  run.manifest.set("tiles", tiles);
  run.manifest.set("window", window);
  run.manifest.set("episodes", episodes);
  run.manifest.set("hidden", agent.hidden);
  run.manifest.set("isa", tensor::f32::isa_name(tensor::f32::active_isa()));

  std::printf("=== policy latency: %d-tile Cholesky (%zu tasks), w=%d, "
              "hidden=%d, isa=%s ===\n\n",
              tiles, graph.num_tasks(), window, agent.hidden,
              tensor::f32::isa_name(tensor::f32::active_isa()));

  std::vector<Variant> variants = {
      {rl::InferenceBackendKind::kF64Ref, {}, 0.0},
      {rl::InferenceBackendKind::kF32Simd, {}, 0.0},
  };

  for (Variant& v : variants) {
    rl::ReadysOptions opts;
    opts.backend = v.backend;
    opts.seed = seed;
    {
      // Warmup episode: first-touch allocations (arena growth, encoder
      // buffers, weight snapshot) land outside the timed samples.
      TimedScheduler warm(net, window, opts, nullptr);
      (void)sim::simulate_makespan(graph, platform, costs, warm, sigma, seed);
    }
    TimedScheduler sched(net, window, opts, &v.us);
    double mk_sum = 0.0;
    for (int ep = 0; ep < episodes; ++ep) {
      mk_sum += sim::simulate_makespan(graph, platform, costs, sched, sigma,
                                       seed + static_cast<std::uint64_t>(ep));
    }
    v.mean_makespan = mk_sum / episodes;
    const auto s = util::summarize(v.us);
    std::printf("%-8s %6zu decisions | mean %8.1f us  p50 %8.1f  p95 %8.1f"
                " | makespan %.1f\n",
                rl::inference_backend_name(v.backend), v.us.size(), s.mean,
                util::quantile(v.us, 0.50), util::quantile(v.us, 0.95),
                v.mean_makespan);
  }

  const double base_mean = util::summarize(variants[0].us).mean;
  const double fast_mean = util::summarize(variants[1].us).mean;
  const double speedup = fast_mean > 0.0 ? base_mean / fast_mean : 0.0;
  std::printf("\nspeedup f32simd vs f64ref: %.2fx\n\n", speedup);

  // Phase 2: batched-vs-single forwards over harvested observations,
  // the tradeoff DecisionService::run_round makes. Encoding is excluded
  // here on purpose — this isolates the InferenceBackend surface.
  std::vector<rl::Observation> states;
  {
    rl::SchedulingEnv env(graph, platform, costs, {sigma, window, seed});
    util::Rng rng(seed ^ 0xBA7C4ED0ULL);
    env.reset(seed + 99);
    bool done = env.done();
    while (!done) {
      const rl::Observation& obs = env.observation();
      states.push_back(obs);
      done = env.step(rng.uniform_index(obs.num_actions())).done;
    }
  }
  const std::size_t kBatch = 8;
  std::vector<BatchedCell> batched;
  for (const auto kind : {rl::InferenceBackendKind::kF64Ref,
                          rl::InferenceBackendKind::kF32Simd}) {
    auto backend = net.make_inference(kind);
    rl::InferenceOutput out;
    std::vector<rl::InferenceOutput> outs;
    {  // batch = 1: one forward() per decision
      const auto t0 = clock_type::now();
      for (const rl::Observation& obs : states) backend->forward(obs, out);
      batched.push_back({backend->name(), 1, states.size(),
                         us_since(t0) / static_cast<double>(states.size())});
    }
    {  // batch = kBatch: serve-style forward_batched rounds
      std::vector<const rl::Observation*> chunk;
      const auto t0 = clock_type::now();
      for (std::size_t i = 0; i < states.size(); i += kBatch) {
        chunk.clear();
        for (std::size_t j = i; j < std::min(i + kBatch, states.size()); ++j) {
          chunk.push_back(&states[j]);
        }
        backend->forward_batched(chunk, outs);
      }
      batched.push_back({backend->name(), kBatch, states.size(),
                         us_since(t0) / static_cast<double>(states.size())});
    }
  }
  for (const BatchedCell& c : batched) {
    std::printf("forward only  %-8s batch %zu: %7.1f us/decision "
                "(%zu decisions)\n",
                c.backend.c_str(), c.batch, c.mean_us, c.decisions);
  }

  const char* path = "BENCH_policy_latency.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::string vjson = "[";
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const Variant& v = variants[i];
      const auto s = util::summarize(v.us);
      obs::JsonObject j;
      j.field("backend", rl::inference_backend_name(v.backend))
          .field("decisions", static_cast<std::uint64_t>(v.us.size()))
          .field("mean_us", s.mean)
          .field("p50_us", util::quantile(v.us, 0.50))
          .field("p95_us", util::quantile(v.us, 0.95))
          .field("ci99_us", s.ci99_half_width)
          .field("mean_makespan", v.mean_makespan);
      if (i > 0) vjson += ",";
      vjson += j.str();
    }
    vjson += "]";
    std::string bjson = "[";
    for (std::size_t i = 0; i < batched.size(); ++i) {
      obs::JsonObject j;
      j.field("backend", batched[i].backend)
          .field("batch", static_cast<std::uint64_t>(batched[i].batch))
          .field("decisions", static_cast<std::uint64_t>(batched[i].decisions))
          .field("mean_us", batched[i].mean_us);
      if (i > 0) bjson += ",";
      bjson += j.str();
    }
    bjson += "]";
    obs::JsonObject j;
    j.field("bench", "policy_latency")
        .field("app", "cholesky")
        .field("tiles", tiles)
        .field("tasks", static_cast<std::uint64_t>(graph.num_tasks()))
        .field("window", window)
        .field("hidden", agent.hidden)
        .field("episodes", episodes)
        .field("sigma", sigma)
        .field("seed", seed)
        .field("isa", tensor::f32::isa_name(tensor::f32::active_isa()))
        .field("speedup_f32simd_vs_f64ref", speedup)
        .raw("variants", vjson)
        .raw("forward_only", bjson);
    std::fprintf(f, "%s\n", j.str().c_str());
    std::fclose(f);
    std::printf("\nbaseline written to %s\n", path);
  } else {
    std::perror(path);
    return 1;
  }
  run.manifest.set("speedup_f32simd_vs_f64ref", speedup);
  run.finish(path);
  return 0;
}
