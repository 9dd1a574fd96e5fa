#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace readys::sched {

/// Minimum Completion Time (Sakellariou & Zhao [46]) — the paper's dynamic
/// baseline.
///
/// Each time a task becomes ready it is immediately bound to the resource
/// on which it is *expected* to complete the soonest, given the expected
/// availability of that resource (running task remainder + already-queued
/// work). Resources then execute their queues in FIFO order. Like READYS,
/// MCT never inspects the DAG beyond the ready set.
///
/// Per-decision cost. Without faults and without comm-aware pricing every
/// resource of one type shares a duration column, so a binding is a
/// minimum over one tournament tree per type: O(log P) per bound task.
/// Idle resources are found through the engine's freed_log(), so a
/// decision touches only the resources that changed: O(new · log P). The
/// original O(P) scans over every visible resource remain for
/// `comm_aware` (the input delay differs per resource) and for fault runs
/// (speed factors split a type's column, outages and recoveries change
/// idleness without a completion); shard-scoped views always report
/// faults on, so the cluster inners scan over their P/K members. Both
/// paths choose the same resource for every task, ties included, and
/// the tree path hands over to the scan for the rest of the episode if
/// anyone else starts a task or drops one of its proposals.
///
/// Fault tolerance: binding considers only resources that are up, a task
/// whose execution is lost (its resource died mid-run, or the result
/// failed) re-enters the engine's ready_log() and is simply re-bound like
/// any newly-ready task, and the backlog queued on a resource that goes
/// down is drained and re-bound elsewhere on the next decision. When no
/// resource is up at all, unbound work parks in a pending list and is
/// retried once the platform recovers. None of these paths activates in a
/// fault-free run, which keeps the golden traces bit-exact.
class MctScheduler : public sim::Scheduler {
 public:
  /// `comm_aware` adds the expected input-shipping delay (engine's
  /// communication model, if any) to each completion estimate — the
  /// "minimize data exchange" refinement of runtime systems (§III-A).
  explicit MctScheduler(bool comm_aware = false);

  void reset(const sim::EngineView& engine) override;
  std::vector<sim::Assignment> decide(const sim::EngineView& engine) override;
  std::string name() const override {
    return comm_aware_ ? "MCT-COMM" : "MCT";
  }

 private:
  /// Per-resource state. The queue is a FIFO threaded through next_, so
  /// a reset allocates no per-resource container.
  struct Slot {
    dag::TaskId head = dag::kInvalidTask;
    dag::TaskId last = dag::kInvalidTask;
    /// Sum of expected durations of the queue — maintained on push/pop
    /// so each candidate completion estimate is O(1) instead of
    /// O(|queue|). Reset to exactly 0 whenever the queue drains, so
    /// floating-point drift cannot outlive a busy period.
    double tail = 0.0;
    /// Tree path: expected finish of the running task while the slot is
    /// keyed busy.
    double finish = 0.0;
    std::uint32_t leaf = 0;    ///< tree path: leaf index in its class
    std::uint8_t type = 0;     ///< tree path: duration class
    std::uint8_t busy = 0;     ///< tree path: 1 = keyed (finish + tail)
    std::uint8_t visible = 0;  ///< in engine.resources() at reset
    std::uint8_t marked = 0;   ///< tree path: already in cands_
  };

  /// Tournament-tree node over the leaves below it: least[0] is the least
  /// idle tail, least[1] the least busy (finish + tail), `finish` the
  /// least busy finish (+inf when none); `r` is set at leaves.
  struct Key {
    double least[2];
    double finish;
    sim::ResourceId r;
  };

  /// One tree per resource type over its visible members, ascending, so
  /// the leftmost qualifying leaf is the lowest id.
  struct DurationClass {
    sim::ResourceId column = -1;  ///< a member: its duration column
    std::uint32_t base = 0;       ///< node i lives at nodes_[base + i]
    std::uint32_t width = 0;      ///< leaves (a power of two); 0 = empty
  };

  Slot& slot(sim::ResourceId r) { return slots_[static_cast<std::size_t>(r)]; }
  bool queued(dag::TaskId t) const { return next_[t] != kUnqueued; }
  void push(Slot& s, dag::TaskId t);
  void pop(Slot& s);

  /// Binds every task in `batch_` (sorted ascending) to its
  /// minimum-expected-completion resource among the up resources, through
  /// the trees or by scanning every visible resource; unbindable tasks go
  /// to `pending_`.
  void bind_batch(const sim::EngineView& engine);
  /// Lowest-id resource of least expected completion for t (tree path);
  /// sets `duration` to t's expected duration there.
  sim::ResourceId best_resource(const sim::EngineView& engine,
                                dag::TaskId t, double& duration) const;

  void build_trees(const sim::EngineView& engine);
  /// Re-reads r's availability from the engine and re-keys its leaf.
  void rekey(const sim::EngineView& engine, sim::ResourceId r);
  /// Writes r's leaf from its slot and restores the minima above it.
  void refresh(sim::ResourceId r);
  /// Adds r to cands_ once per call.
  void mark(Slot& s, sim::ResourceId r);
  /// Tree path: checks that the previous proposals started as proposed
  /// and that nothing else started, then re-keys every resource that
  /// changed since: the proposals, the freed resources, and the busy
  /// ones whose task ran past its expected finish (available at now, not
  /// at the stale finish). False hands the episode over to the scan.
  bool sync_trees(const sim::EngineView& engine);

  /// Drops stale heads of r's queue; if r is idle, proposes its head.
  void pull(const sim::EngineView& engine, sim::ResourceId r,
            std::vector<sim::Assignment>& out);

  /// Fewest visible resources for the tree path. Below it the O(P) scan
  /// is cheaper per decision: on Cholesky T=20 at sigma 0.3 (4-core
  /// Xeon VM, interleaved in one process), the trees' decide p99 was
  /// 1.3x the scan's at P=4, 1.1-1.2x at P=8 and 16, and 0.87x at P=32.
  static constexpr std::size_t kTreeMinResources = 32;

  /// next_ value of a task that sits in no queue.
  static constexpr dag::TaskId kUnqueued = dag::kInvalidTask - 1;

  bool comm_aware_;
  /// Tree path active (no comm pricing, no faults, nothing foreign seen
  /// this episode).
  bool use_trees_ = false;
  std::vector<Slot> slots_;
  /// Per task: the next task in its resource queue, kInvalidTask at the
  /// end of a queue, kUnqueued when in no queue.
  std::vector<dag::TaskId> next_;
  /// Position in engine.ready_log() up to which tasks have been bound;
  /// the binding scan only touches log entries past this cursor. Under
  /// fault injection the log can contain the same task several times
  /// (once per time it became ready); the cursor consumes each
  /// became-ready occurrence exactly once.
  std::size_t log_cursor_ = 0;
  /// Scratch: per-resource expected availability, snapshotted once per
  /// binding scan (it cannot change while tasks are being bound).
  std::vector<double> avail_base_;
  /// Scratch: batch to bind, sorted ascending before binding.
  std::vector<dag::TaskId> batch_;
  /// Tasks that could not be bound (no resource up); retried each call.
  std::vector<dag::TaskId> pending_;

  // --- tree path -----------------------------------------------------
  std::array<DurationClass, sim::kNumResourceTypes> classes_{};
  std::vector<Key> nodes_;
  /// Position in engine.freed_log() up to which freed resources were
  /// re-keyed.
  std::size_t freed_cursor_ = 0;
  /// Tasks started so far this episode, as ready_log().size() minus
  /// ready().size() must read while only this scheduler starts tasks.
  std::size_t started_ = 0;
  /// Previous call's proposals, verified and re-keyed at the next call.
  std::vector<sim::Assignment> proposed_;
  /// Scratch: resources that may pull this call (freed or just bound).
  std::vector<sim::ResourceId> cands_;
};

}  // namespace readys::sched
