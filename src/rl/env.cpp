#include "rl/env.hpp"

#include <stdexcept>
#include <vector>

#include "obs/telemetry.hpp"
#include "sched/heft.hpp"
#include "sim/simulator.hpp"

namespace readys::rl {

namespace {
/// Salt of the offer stream, so offers never share draws with the noise
/// or fault streams seeded from the same episode seed.
constexpr std::uint64_t kOfferSalt = 0xD1B54A32D192ED03ULL;
}  // namespace

DecisionPoint::DecisionPoint(const dag::TaskGraph& graph,
                             const sim::CostModel& costs, int window,
                             bool random_offer)
    : encoder_(graph, costs, window),
      random_offer_(random_offer),
      offers_(kOfferSalt) {}

void DecisionPoint::reset(std::uint64_t seed) {
  offers_ = util::Rng(seed ^ kOfferSalt);
  declined_.clear();
  instant_ = -1.0;
}

const Observation* DecisionPoint::next(const sim::EngineView& view) {
  if (view.now() != instant_) {
    declined_.clear();  // a new instant re-opens parked resources
    instant_ = view.now();
  }
  if (view.ready().empty()) return nullptr;
  std::vector<sim::ResourceId> cands = view.idle_resources();
  std::erase_if(cands,
                [this](sim::ResourceId r) { return declined_.contains(r); });
  if (cands.empty()) return nullptr;
  const sim::ResourceId current =
      random_offer_ ? cands[offers_.uniform_index(cands.size())]
                    : cands.front();
  const bool allow_idle = view.any_running() || cands.size() > 1;
  return &encoder_.encode(view, current, allow_idle);
}

void DecisionPoint::decline() {
  declined_.insert(encoder_.observation().current_resource);
}

SchedulingEnv::SchedulingEnv(const dag::TaskGraph& graph,
                             const sim::Platform& platform,
                             const sim::CostModel& costs, Config config)
    : engine_(graph, platform, costs, config.faults, config.sigma,
              config.seed),
      decision_(graph, costs, config.window, config.random_offer),
      config_(config),
      heft_ref_(sched::heft_expected_makespan(graph, platform, costs)) {
  reset(config.seed);
}

const Observation& SchedulingEnv::reset(std::optional<std::uint64_t> seed) {
  obs::Span span("rl/env_reset", "train");
  if (obs::Telemetry* t = obs::telemetry()) t->env_resets.add();
  const std::uint64_t s = seed.value_or(config_.seed);
  engine_.reset(s);
  decision_.reset(s);
  decisions_ = 0;
  advance_to_decision();
  return observation();
}

void SchedulingEnv::advance_to_decision() {
  while (!engine_.finished()) {
    {
      obs::Span encode_span("rl/state_encode", "train");
      if (decision_.next(engine_) != nullptr) return;
    }
    sim::advance_or_throw(engine_);
  }
}

SchedulingEnv::StepResult SchedulingEnv::step(std::size_t a) {
  obs::Telemetry* t = obs::telemetry();
  obs::Span span("rl/env_step", "train", t ? &t->env_step_us : nullptr);
  if (t) t->env_steps.add();
  if (engine_.finished()) {
    throw std::logic_error("SchedulingEnv::step: episode already done");
  }
  const Observation& obs = observation();
  if (a >= obs.num_actions()) {
    throw std::out_of_range("SchedulingEnv::step: bad action index");
  }
  ++decisions_;
  if (obs.allow_idle && a == obs.idle_action()) {
    decision_.decline();
  } else {
    engine_.start(obs.ready_tasks[a], obs.current_resource);
  }
  advance_to_decision();
  StepResult result;
  result.done = engine_.finished();
  if (result.done) {
    result.reward = (heft_ref_ - engine_.makespan()) / heft_ref_;
  }
  return result;
}

}  // namespace readys::rl
