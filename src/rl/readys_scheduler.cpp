#include "rl/readys_scheduler.hpp"

#include <cmath>
#include <stdexcept>

#include "sched/spec.hpp"

namespace readys::rl {

ReadysScheduler::ReadysScheduler(const PolicyNet& net, int window,
                                 ReadysOptions opts)
    : net_(&net), window_(window), opts_(opts), rng_(opts.seed) {}

void ReadysScheduler::reset(const sim::EngineView& engine) {
  encoder_.emplace(engine.graph(), engine.costs(), window_);
  // Rebuilt only when the net's weights actually changed since the last
  // episode (weight_version is bumped on optimizer step / deserialize),
  // so a kF32Simd snapshot tracks the live weights across
  // train-then-evaluate flows without re-snapshotting per reset.
  if (!backend_ || backend_version_ != net_->weight_version()) {
    backend_ = net_->make_inference(opts_.backend);
    backend_version_ = net_->weight_version();
  }
  rng_ = util::Rng(opts_.seed);
  declined_.clear();
  last_instant_ = -1.0;
}

std::vector<sim::Assignment> ReadysScheduler::decide(
    const sim::EngineView& engine) {
  if (engine.now() != last_instant_) {
    declined_.clear();  // a new instant re-opens parked resources
    last_instant_ = engine.now();
  }
  if (engine.ready().empty()) return {};

  std::vector<sim::ResourceId> cands;
  for (sim::ResourceId r : engine.idle_resources()) {
    if (!declined_.contains(r)) cands.push_back(r);
  }
  while (!cands.empty()) {
    const std::size_t pick =
        opts_.random_offer ? rng_.uniform_index(cands.size()) : 0;
    const sim::ResourceId current = cands[pick];
    const bool allow_idle = engine.any_running() || cands.size() > 1;
    const Observation& obs = encoder_->encode(engine, current, allow_idle);
    backend_->forward(obs, out_);

    // Greedy argmax or categorical sample over π.
    const std::vector<double>& p = out_.probs;
    // A NaN policy must not silently argmax to action 0: surface it so a
    // wrapper (sched::GuardedScheduler) can fall back to a heuristic.
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!std::isfinite(p[i])) {
        throw std::runtime_error(
            "ReadysScheduler: non-finite policy probability " +
            std::to_string(p[i]) + " at action " + std::to_string(i));
      }
    }
    std::size_t a = 0;
    if (opts_.greedy) {
      for (std::size_t i = 1; i < p.size(); ++i) {
        if (p[i] > p[a]) a = i;
      }
    } else {
      const double u = rng_.uniform();
      double acc = 0.0;
      a = p.size() - 1;
      for (std::size_t i = 0; i < p.size(); ++i) {
        acc += p[i];
        if (u < acc) {
          a = i;
          break;
        }
      }
    }
    if (obs.allow_idle && a == obs.idle_action()) {
      declined_.insert(current);
      cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;  // offer the instant to another idle resource
    }
    return {{obs.ready_tasks[a], current}};
  }
  return {};
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
                               bool random_offer, ReadysOptions defaults) {
  defaults.random_offer = random_offer;
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
