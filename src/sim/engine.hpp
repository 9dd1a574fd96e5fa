#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dag/task_graph.hpp"
#include "sim/comm_model.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault_model.hpp"
#include "sim/noise.hpp"
#include "sim/platform.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace readys::sim {

/// A task currently being executed.
struct RunningInfo {
  dag::TaskId task = dag::kInvalidTask;
  ResourceId resource = -1;
  double start = 0.0;
  double actual_finish = 0.0;    ///< hidden from schedulers
  double expected_finish = 0.0;  ///< start + E(task, resource): observable
  std::uint64_t seq = 0;         ///< event sequence of this execution
};

/// Discrete-event core shared by the callback Simulator and the RL
/// environment.
///
/// The engine owns the dynamic state of one execution: the simulation
/// clock, the ready set, the running tasks (with their noisy actual
/// durations, hidden from schedulers), and the trace. Schedulers observe
/// *expected* completion times only — the stochastic setting of the paper.
///
/// With a FaultModel the engine additionally injects resource outages,
/// recoveries, transient slowdowns and task failures as events in the
/// same heap that drives completions. A resource that dies mid-task
/// discards the in-flight work and the task re-enters the ready set (and
/// is appended to ready_log() a second time — schedulers must treat the
/// log as append-only but not append-once). FaultModel::none() keeps
/// every fault branch dead and is bit-exact with the fault-free
/// constructors.
///
/// Hot-path complexity (R = ready-set width, P = platform size):
///  - is_ready          O(1)   membership bitmap
///  - start             O(log R + move) ordered erase from the ready set
///  - advance/complete  O(log P) per event via the event min-heap;
///                      newly-ready successors insert in O(log R + move)
///  - expected_duration O(1)   precomputed (kernel x resource) table
///  - expected_available_at O(1) per-resource expected-finish table
/// The ready set stays an ascending-id contiguous vector so ready() can
/// hand out a reference without materializing anything.
class SimEngine {
 public:
  SimEngine(const dag::TaskGraph& graph, const Platform& platform,
            const CostModel& costs, double sigma, std::uint64_t seed);

  /// Engine with a communication model: starting a task first ships its
  /// inputs from the resources that produced them (serialized, then
  /// compute). With CommModel::free() this is identical to the 5-arg
  /// constructor — the paper's zero-communication assumption.
  SimEngine(const dag::TaskGraph& graph, const Platform& platform,
            const CostModel& costs, const CommModel& comm, double sigma,
            std::uint64_t seed);

  /// Engine with fault injection. FaultModel::none() is bit-exact with
  /// the 5-arg constructor (pinned by tests/test_fault_model.cpp).
  /// Throws std::invalid_argument if the model fails validate().
  SimEngine(const dag::TaskGraph& graph, const Platform& platform,
            const CostModel& costs, const FaultModel& faults, double sigma,
            std::uint64_t seed);

  /// Communication model + fault injection.
  SimEngine(const dag::TaskGraph& graph, const Platform& platform,
            const CostModel& costs, const CommModel& comm,
            const FaultModel& faults, double sigma, std::uint64_t seed);

  /// Restores the initial state (sources ready, clock at 0, every
  /// resource up at full speed) with fresh noise and fault streams
  /// derived from `seed`.
  void reset(std::uint64_t seed);

  double now() const noexcept { return now_; }
  bool finished() const noexcept {
    return completed_ == graph_->num_tasks();
  }
  std::size_t num_completed() const noexcept { return completed_; }

  /// Tasks whose predecessors all completed and that are not yet started,
  /// in ascending id order.
  const std::vector<dag::TaskId>& ready() const noexcept { return ready_; }

  /// Append-only log of every task in the order it became ready this
  /// episode (sources first, then successors as completions release
  /// them). Entries are never removed when tasks start, so a scheduler
  /// can keep a cursor into this log and discover newly-ready work in
  /// O(new) instead of rescanning the whole ready set each decision.
  /// Under fault injection a task whose execution was lost re-enters the
  /// ready set and is appended *again* — the same id can appear multiple
  /// times, once per time it became ready.
  const std::vector<dag::TaskId>& ready_log() const noexcept {
    return ready_log_;
  }

  /// Append-only log of the resources freed by an execution ending (a
  /// completion, or under fault injection a failed execution), in event
  /// order. A scheduler keeps a cursor into it, as into ready_log(), to
  /// find the resources that became idle in O(new) instead of scanning
  /// all P. A resource coming back from an outage is not logged.
  const std::vector<ResourceId>& freed_log() const noexcept {
    return freed_log_;
  }

  /// Resources that are up with nothing running, in ascending id order.
  /// Scans the whole platform: O(P).
  std::vector<ResourceId> idle_resources() const;

  bool is_ready(dag::TaskId t) const noexcept {
    return t < in_ready_.size() && in_ready_[t] != 0;
  }
  /// Up and with nothing running. Down resources are never idle.
  bool is_idle(ResourceId r) const {
    return resource_up_[static_cast<std::size_t>(r)] != 0 &&
           resource_task_[static_cast<std::size_t>(r)] == dag::kInvalidTask;
  }
  bool is_done(dag::TaskId t) const {
    return done_[t];
  }
  /// Task running on r, or kInvalidTask.
  dag::TaskId running_on(ResourceId r) const {
    return resource_task_[static_cast<std::size_t>(r)];
  }

  /// Currently-running tasks, in start order.
  const std::vector<RunningInfo>& running() const noexcept { return running_; }
  bool any_running() const noexcept { return !running_.empty(); }

  /// Expected duration of `t` on resource `r` per the cost model
  /// (compute only, no communication). Table lookup; under fault
  /// injection the value is scaled by the resource's current slowdown
  /// factor, which is what a runtime's cost model would report for a
  /// degraded node.
  double expected_duration(dag::TaskId t, ResourceId r) const {
    const double d =
        duration_table_[static_cast<std::size_t>(graph_->kernel(t)) *
                            static_cast<std::size_t>(platform_.size()) +
                        static_cast<std::size_t>(r)];
    return fault_enabled_ ? d * speed_factor_[static_cast<std::size_t>(r)]
                          : d;
  }

  /// Input-shipping delay `t` would pay before computing on `r` given
  /// where its predecessors ran; 0 without a communication model.
  /// Only meaningful when `t` is ready (its predecessors completed).
  double expected_input_delay(dag::TaskId t, ResourceId r) const;

  bool has_comm_model() const noexcept { return comm_.has_value(); }

  // --- fault observability -------------------------------------------

  bool fault_enabled() const noexcept { return fault_enabled_; }
  const FaultModel& faults() const noexcept { return fault_; }
  /// False while r is in a fail-stop outage.
  bool is_up(ResourceId r) const {
    return resource_up_[static_cast<std::size_t>(r)] != 0;
  }
  /// Current duration multiplier of r (1.0 when healthy).
  double speed_factor(ResourceId r) const {
    return speed_factor_[static_cast<std::size_t>(r)];
  }
  /// Number of resources currently up.
  int num_up() const noexcept;
  std::size_t num_outages() const noexcept { return outages_; }
  std::size_t num_recoveries() const noexcept { return recoveries_; }
  /// Executions whose work was discarded (outage kills + task failures);
  /// each one re-entered the ready set for re-execution.
  std::size_t num_lost_executions() const noexcept {
    return lost_executions_;
  }

  /// Observable availability estimate of resource r: now if idle, else
  /// the expected finish of its running task clamped to now; +infinity
  /// while r is down (no completion can be promised — schedulers must
  /// not bind work there). Throws std::logic_error if the busy /
  /// expected-finish tables disagree (state corruption).
  double expected_available_at(ResourceId r) const;

  /// Starts `t` on idle resource `r` at the current time; draws the
  /// actual (noisy) duration. Throws std::logic_error on protocol
  /// violations (task not ready / resource busy or down).
  void start(dag::TaskId t, ResourceId r);

  /// Advances the clock to the next observable event — a task completing
  /// (all tasks finishing at that instant retire together), a task
  /// failing, or the platform changing (outage / recovery / slowdown
  /// edge). Returns false when no event is pending: nothing is running
  /// and no fault is scheduled, so the clock cannot advance.
  bool advance();

  const dag::TaskGraph& graph() const noexcept { return *graph_; }
  const Platform& platform() const noexcept { return platform_; }
  const CostModel& costs() const noexcept { return costs_; }
  const NoiseModel& noise() const noexcept { return noise_; }
  const Trace& trace() const noexcept { return trace_; }

  /// Resource that produced each completed task's output (-1 while the
  /// task has not completed). Drives communication-delay estimates and
  /// shard-locality placement.
  const std::vector<ResourceId>& producer_of() const noexcept {
    return producer_of_;
  }
  /// Flattened (kernel x resource) expected-duration table, row-major.
  const std::vector<double>& duration_table() const noexcept {
    return duration_table_;
  }
  /// The engine's communication model, or nullptr without one.
  const CommModel* comm_model() const noexcept {
    return comm_ ? &*comm_ : nullptr;
  }

  /// Makespan so far (= final makespan once finished()).
  double makespan() const noexcept { return trace_.makespan(); }

  /// Number of start() calls since the last reset.
  std::size_t num_started() const noexcept { return started_; }

 private:
  enum class EventKind : std::uint8_t {
    kFinish,         ///< task completes normally
    kFail,           ///< task occupied the resource, then its result is lost
    kOutage,         ///< resource dies (fail-stop)
    kRecovery,       ///< resource comes back up
    kSlowdownBegin,  ///< resource enters a degraded window
    kSlowdownEnd,    ///< degraded window ends
  };

  /// One pending event in the heap. Ties on time break by insertion
  /// sequence; in fault-free runs every event is a completion inserted
  /// at start(), which reproduces the retirement order of the historical
  /// linear-scan implementation exactly.
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;
    dag::TaskId task = dag::kInvalidTask;  ///< kFinish/kFail only
    ResourceId resource = -1;              ///< fault events only
    EventKind kind = EventKind::kFinish;
  };

  void insert_ready(dag::TaskId t);
  /// Pushes an event at absolute time `time`, assigning the next seq.
  std::uint64_t push_event(double time, dag::TaskId task, ResourceId r,
                           EventKind kind);
  /// Handles one popped event; sets `observable` when engine state a
  /// scheduler can see changed (completion, loss, topology or speed).
  void dispatch(const Event& ev, bool& observable);
  void complete(const RunningInfo& info);
  /// Discards the in-flight execution on `r` and re-readies its task.
  void kill_running(ResourceId r);
  /// True if taking `r` down would violate the survivor guard.
  bool outage_would_strand(ResourceId r) const;

  // The graph is held by reference (it can be large and is shared across
  // many engines); platform and cost model are tiny and copied so that
  // inline temporaries like Platform::hybrid(2, 2) are safe.
  const dag::TaskGraph* graph_;
  Platform platform_;
  CostModel costs_;
  std::optional<CommModel> comm_;
  NoiseModel noise_;
  util::Rng rng_;

  FaultModel fault_;        ///< none() unless a fault constructor was used
  bool fault_enabled_ = false;
  util::Rng fault_rng_;     ///< dedicated stream: never perturbs rng_

  double now_ = 0.0;
  std::vector<std::size_t> missing_preds_;  // per task
  std::vector<bool> done_;
  std::vector<dag::TaskId> ready_;          // ascending id order
  std::vector<std::uint8_t> in_ready_;      // per task: O(1) membership
  std::vector<dag::TaskId> ready_log_;      // became-ready order, append-only
  std::vector<ResourceId> freed_log_;       // freed-by-execution order
  std::vector<RunningInfo> running_;        // start order, <= platform size
  std::vector<Event> events_;               // min-heap on (time, seq)
  std::uint64_t event_seq_ = 0;             // insertion order tie-break
  std::vector<dag::TaskId> resource_task_;  // per resource
  std::vector<double> resource_expected_finish_;  // per resource; NaN idle
  std::vector<std::uint8_t> resource_up_;   // per resource: outage mask
  std::vector<double> speed_factor_;        // per resource: slowdown state
  std::vector<ResourceId> producer_of_;     // resource that ran each task
  std::vector<double> duration_table_;      // kernel x resource, row-major
  Trace trace_;
  std::size_t completed_ = 0;
  std::size_t started_ = 0;
  std::size_t outages_ = 0;
  std::size_t recoveries_ = 0;
  std::size_t lost_executions_ = 0;
};

}  // namespace readys::sim
