#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "rl/state_encoder.hpp"
#include "sim/engine.hpp"

namespace readys::rl {

/// The offer protocol of the paper's MDP, shared by the training env
/// (SchedulingEnv) and the deployed policy (ReadysScheduler), so both
/// drive one definition of a decision instant.
///
/// A decision instant occurs whenever at least one task is ready and at
/// least one idle resource has not declined the current instant. That
/// resource — the lowest-index candidate, or one drawn uniformly from the
/// offer stream with `random_offer` — becomes the observation's current
/// processor. ∅ is legal unless declining would deadlock: nothing is
/// running and this is the last candidate. A declined resource stays
/// parked until the clock moves.
class DecisionPoint {
 public:
  DecisionPoint(const dag::TaskGraph& graph, const sim::CostModel& costs,
                int window, bool random_offer);

  /// Starts an episode: re-opens every resource and reseeds the offer
  /// stream from `seed`.
  void reset(std::uint64_t seed);

  /// Encodes the next offer of the current instant, or returns nullptr
  /// when no task is ready or every idle resource has declined. The
  /// observation stays valid until the next call.
  const Observation* next(const sim::EngineView& view);

  /// The current processor of the last offer declines (∅).
  void decline();

  const Observation& observation() const noexcept {
    return encoder_.observation();
  }

 private:
  IncrementalEncoder encoder_;  ///< owns the current observation
  bool random_offer_;
  util::Rng offers_;  ///< current-processor draw (independent of noise)
  std::unordered_set<sim::ResourceId> declined_;  ///< parked this instant
  double instant_ = -1.0;  ///< the clock declined_ belongs to
};

/// The paper's MDP as a step-based environment over a DecisionPoint.
///
/// The current processor is offered the ready tasks and may decline
/// with ∅ (see DecisionPoint). ∅ is masked when declining would
/// deadlock the system. The reward is zero until the terminal state,
/// where it is
///   (makespan(HEFT) − makespan) / makespan(HEFT)
/// with makespan(HEFT) the deterministic expected-duration HEFT makespan
/// (cached at construction).
class SchedulingEnv {
 public:
  struct Config {
    double sigma = 0.0;
    int window = 1;
    std::uint64_t seed = 1;
    /// Draw the current processor uniformly among idle candidates (the
    /// paper's wording). Off by default: offering the lowest-index idle
    /// resource first is strategically equivalent (∅ lets the agent pass
    /// a processor on to the next) but removes a large exogenous noise
    /// source from the returns, which stabilizes A2C substantially.
    bool random_offer = false;
    /// Fault injection for the episode engine. Down resources drop out
    /// of the candidate set (the action mask only ever offers idle, up
    /// resources), and tasks whose execution was lost reappear in the
    /// ready actions. none() keeps the environment bit-exact with the
    /// fault-free construction.
    sim::FaultModel faults = sim::FaultModel::none();
  };

  struct StepResult {
    double reward = 0.0;
    bool done = false;
  };

  SchedulingEnv(const dag::TaskGraph& graph, const sim::Platform& platform,
                const sim::CostModel& costs, Config config);

  /// Starts a new episode and returns the first observation (the same
  /// object observation() refers to, so the old reset-then-observe()
  /// two-call sequence keeps working). Passing a seed reseeds every
  /// stream (noise, faults, processor draw); omitting it replays the
  /// configured seed — reset() is deterministic and idempotent.
  const Observation& reset(std::optional<std::uint64_t> seed = std::nullopt);

  /// Applies action `a` (index into observation().num_actions(): the
  /// ready tasks in order, then ∅ if allowed) and advances to the next
  /// decision instant or the terminal state.
  StepResult step(std::size_t a);

  /// Valid between reset() and a step() returning done.
  const Observation& observation() const noexcept {
    return decision_.observation();
  }

  bool done() const noexcept { return engine_.finished(); }
  double makespan() const noexcept { return engine_.makespan(); }
  /// The reward denominator: expected-duration HEFT makespan.
  double heft_reference() const noexcept { return heft_ref_; }
  std::size_t decisions_this_episode() const noexcept { return decisions_; }

  const sim::SimEngine& engine() const noexcept { return engine_; }

 private:
  /// Advances the engine until a decision is possible (or termination)
  /// and encodes the observation.
  void advance_to_decision();

  sim::SimEngine engine_;
  DecisionPoint decision_;
  Config config_;
  double heft_ref_;
  std::size_t decisions_ = 0;
};

}  // namespace readys::rl
