#include "rl/readys_scheduler.hpp"

#include <stdexcept>

#include "sched/spec.hpp"

namespace readys::rl {

ReadysScheduler::ReadysScheduler(const PolicyNet& net, int window,
                                 ReadysOptions opts)
    : net_(&net), window_(window), opts_(opts), rng_(opts.seed) {}

void ReadysScheduler::reset(const sim::EngineView& engine) {
  decision_.emplace(engine.graph(), engine.costs(), window_,
                    opts_.random_offer);
  decision_->reset(opts_.seed);
  // Rebuilt only when the net's weights actually changed since the last
  // episode (weight_version is bumped on optimizer step / deserialize),
  // so a kF32Simd snapshot tracks the live weights across
  // train-then-evaluate flows without re-snapshotting per reset.
  if (!backend_ || backend_version_ != net_->weight_version()) {
    backend_ = net_->make_inference(opts_.backend);
    backend_version_ = net_->weight_version();
  }
  rng_ = util::Rng(opts_.seed);
}

std::vector<sim::Assignment> ReadysScheduler::decide(
    const sim::EngineView& engine) {
  while (const Observation* obs = decision_->next(engine)) {
    backend_->forward(*obs, out_);
    // A NaN policy throws here, so a wrapper (sched::GuardedScheduler)
    // can fall back to a heuristic.
    const std::size_t a =
        choose_action(out_.probs, opts_.greedy ? nullptr : &rng_);
    if (obs->allow_idle && a == obs->idle_action()) {
      decision_->decline();  // offer the instant to another idle resource
      continue;
    }
    return {{obs->ready_tasks[a], obs->current_resource}};
  }
  return {};
}

std::vector<double> evaluate_policy(const PolicyNet& net, int window,
                                    const dag::TaskGraph& graph,
                                    const sim::Platform& platform,
                                    const sim::CostModel& costs, double sigma,
                                    int episodes, std::uint64_t seed_base,
                                    bool greedy) {
  std::vector<double> makespans;
  for (int i = 0; i < episodes; ++i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    ReadysScheduler policy(net, window, {.greedy = greedy, .seed = seed});
    makespans.push_back(
        sim::simulate_makespan(graph, platform, costs, policy, sigma, seed));
  }
  return makespans;
}

namespace {

ReadysOptions parse_readys_options(const sched::SpecOptions& spec,
                                   ReadysOptions opts) {
  for (const auto& [key, value] : spec.items) {
    if (key == "backend") {
      opts.backend = parse_inference_backend(value);  // throws on bad value
    } else {
      throw std::invalid_argument("unknown readys option \"" + key +
                                  "\" (known: backend)");
    }
  }
  return opts;
}

}  // namespace

void register_readys_scheduler(const PolicyNet& net, int window,
                               ReadysOptions defaults) {
  sched::registry().add_spec(
      "readys",
      [defaults](const sched::SpecOptions& spec) {
        (void)parse_readys_options(spec, defaults);
      },
      [&net, window, defaults](const sched::SpecOptions& spec,
                               const sched::SchedulerConfig& cfg)
          -> std::unique_ptr<sim::Scheduler> {
        ReadysOptions opts = parse_readys_options(spec, defaults);
        opts.greedy = cfg.greedy;
        opts.seed = cfg.seed;
        return std::make_unique<ReadysScheduler>(net, window, opts);
      });
}

}  // namespace readys::rl
