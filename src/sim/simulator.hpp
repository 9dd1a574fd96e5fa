#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/engine_view.hpp"

namespace readys::sim {

/// One scheduling decision: start `task` on `resource` now.
struct Assignment {
  dag::TaskId task = dag::kInvalidTask;
  ResourceId resource = -1;
};

/// Interface every scheduling strategy implements to run under the
/// Simulator (HEFT replay, MCT, random, and the READYS agent itself).
///
/// Schedulers observe the simulation through an EngineView — either a
/// whole SimEngine (which converts implicitly, so `decide(engine)` call
/// sites read naturally) or a shard-scoped view the cluster layer's
/// ShardScheduler builds over the engine's for its inner schedulers.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once before an execution begins.
  virtual void reset(const EngineView& view) { (void)view; }

  /// Called at every decision instant (t = 0 and after each completion).
  /// The scheduler may start any subset of (ready task, idle resource)
  /// pairs; returning an empty vector lets the clock advance to the next
  /// completion. The simulator re-invokes decide() after applying the
  /// returned assignments, so returning one assignment at a time is fine.
  virtual std::vector<Assignment> decide(const EngineView& view) = 0;

  /// Human-readable name used in experiment tables.
  virtual std::string name() const = 0;
};

/// Result of one simulated execution.
struct SimResult {
  double makespan = 0.0;
  Trace trace;
  std::size_t decision_instants = 0;
};

/// Event-driven executor: alternates scheduler decisions and event
/// processing until every task of the graph has completed.
///
/// Throws std::logic_error if the scheduler stalls (assigns nothing while
/// nothing is running and tasks remain) — a deadlock under the paper's
/// MDP, where the ∅ action must be masked when no task is in flight —
/// or if fault injection rendered the platform unrecoverable (every
/// resource down with no recovery pending; impossible with the fault
/// model's default survivor guard).
class Simulator {
 public:
  struct Options {
    double sigma = 0.0;
    std::uint64_t seed = 1;
    /// Optional communication model (input shipping before compute);
    /// unset reproduces the paper's zero-communication assumption.
    std::optional<CommModel> comm;
    /// Optional fault injection (outages / slowdowns / task failures);
    /// unset — or FaultModel::none() — reproduces the fault-free engine
    /// bit-exactly.
    std::optional<FaultModel> faults;
  };

  Simulator(const dag::TaskGraph& graph, const Platform& platform,
            const CostModel& costs, Options options);

  SimResult run(Scheduler& scheduler);

 private:
  const dag::TaskGraph* graph_;  // must outlive the simulator
  Platform platform_;            // copied: inline temporaries are safe
  CostModel costs_;
  Options options_;
};

/// Advances `engine` to its next event between decision instants, the
/// one stall check of every driver (Simulator::run, rl::SchedulingEnv).
/// Throws std::logic_error when the platform is unrecoverable (every
/// resource permanently down while tasks remain) or when nothing can
/// advance: no task running and none assigned, which the ∅ mask of the
/// paper's MDP rules out.
void advance_or_throw(SimEngine& engine);

/// Convenience: build, run, and return the makespan in one call.
double simulate_makespan(const dag::TaskGraph& graph, const Platform& platform,
                         const CostModel& costs, Scheduler& scheduler,
                         double sigma, std::uint64_t seed);

}  // namespace readys::sim
