#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/heartbeat.hpp"
#include "cluster/partition.hpp"
#include "obs/metrics.hpp"
#include "sched/guarded.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace readys::cluster {

/// Decentralized scheduler: K per-shard instances of any registered
/// inner policy, each deciding over a *scoped* view of its own shard,
/// coordinated through bounded-stale summaries instead of shared state.
///
/// Scoping is the whole trick: a shard's EngineState lists only its
/// member resources, reports every remote resource as down, and sets
/// fault_enabled — so an unmodified inner (MCT, HEFT, guarded:readys,
/// ...) confines its bindings to the shard through the exact code paths
/// it already uses for dead resources. No inner knows it is sharded.
///
/// Per decide() the coordinator:
///   1. consumes the global ready log and assigns each newly-ready task
///      an owner shard — the shard of the resource that produced its
///      first input (data locality), hash-sharded for sources;
///   2. feeds current liveness into a HeartbeatMonitor (failure is
///      *discovered* after missed beats, never read from ground truth);
///   3. refreshes a stale directory of per-shard queue depths at most
///      every `stale_ms` of simulated time — the only cross-shard
///      state, aged into cluster.stale_view_age_ms;
///   4. lets starved shards steal half of the deepest believed-alive
///      victim's queue (directory picks the victim, the live transfer
///      moves ownership);
///   5. runs the inners of shards that have an up-and-idle member on
///      their scoped views (a shard with every member busy or down
///      cannot bind anything, so its inner is not woken — the
///      event-driven activation that keeps coordinator cost per round
///      near O(P/K) instead of O(P)); optionally on a thread pool —
///      scopes are disjoint, results apply in shard order, so parallel
///      and serial decide identically;
///   6. if nothing was bound anywhere and nothing runs, rescues
///      liveness with a one-shot full-view MCT decision (counted in
///      cluster.rescue_fallbacks) instead of stalling the simulator.
///
/// Runs under sim::Simulator like any other scheduler: the base view is
/// the engine's, and each scoped EngineState forwards the global facts
/// it does not own to that base view.
class ShardScheduler : public sim::Scheduler {
 public:
  struct Options {
    int shards = 4;          ///< clamped to the platform size at reset
    double stale_ms = 5.0;   ///< directory refresh interval (sim time)
    double hb_period_ms = 1.0;
    int hb_suspect = 3;      ///< missed beats -> suspect
    int hb_dead = 6;         ///< missed beats -> dead
    bool steal = true;       ///< work stealing on ready-queue drain
    int parallel = 0;        ///< >0: thread-pool width for inner decides
    std::uint64_t seed = 7;  ///< heartbeat jitter stream
  };

  /// `inners` supplies one scheduler per shard (size == opts.shards);
  /// `inner_label` is the inner spec used in name().
  ShardScheduler(std::vector<std::unique_ptr<sim::Scheduler>> inners,
                 Options opts, std::string inner_label);

  void reset(const sim::EngineView& view) override;
  std::vector<sim::Assignment> decide(const sim::EngineView& view) override;
  std::string name() const override;

  // --- introspection (tests / experiment tables) ---------------------
  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }
  const Options& options() const noexcept { return opts_; }
  const HeartbeatMonitor& heartbeat() const noexcept { return monitor_; }
  /// Ready tasks currently owned by shard s, ascending.
  const std::vector<dag::TaskId>& shard_queue(int s) const {
    return shards_[static_cast<std::size_t>(s)].ready;
  }
  /// Simulated time of the last directory refresh; nondecreasing over
  /// an episode, and decide() never leaves the directory older than
  /// stale_ms (the bounded-staleness guarantee the property suite pins).
  double directory_refreshed_at() const noexcept { return directory_at_; }
  std::size_t steals() const noexcept { return steals_; }
  std::size_t stolen_tasks() const noexcept { return stolen_tasks_; }
  std::size_t rescue_fallbacks() const noexcept { return rescues_; }
  std::size_t dropped_assignments() const noexcept { return dropped_; }

 private:
  struct Shard {
    sim::Scheduler* inner = nullptr;        ///< borrowed from inners_
    std::vector<sim::ResourceId> members;   ///< ascending
    std::vector<dag::TaskId> ready;         ///< owned ready tasks, ascending
    std::vector<std::uint8_t> in_ready;     ///< ownership bitmap, per task
                                            ///< (coordinator-private; the
                                            ///< scoped view's is_ready
                                            ///< forwards to the base)
    std::vector<dag::TaskId> ready_log;     ///< per-shard became-ready order
    std::vector<sim::RunningInfo> running;  ///< scoped to members
    std::vector<std::uint8_t> up;           ///< per resource; remote = 0
    std::vector<double> avail;              ///< per resource; remote = +inf
    bool has_idle = false;  ///< any member up and idle this round
    sim::EngineState state;
  };

  /// Bounded-stale cross-shard summary (what a shard would learn from
  /// gossip): per-shard queue depth as of the last refresh.
  struct DirEntry {
    std::size_t depth = 0;
    bool alive = true;
  };

  void bind_scoped_states();
  void sync_ownership(const sim::EngineView& view);
  void refresh_scoped(const sim::EngineView& view);
  void refresh_directory(const sim::EngineView& view);
  void try_steal(const sim::EngineView& view);
  void insert_owned(int s, dag::TaskId t);
  void remove_owned(dag::TaskId t);
  bool shard_believed_alive(int s) const;

  std::vector<std::unique_ptr<sim::Scheduler>> inners_;
  Options opts_;
  std::string inner_label_;

  std::vector<Shard> shards_;
  Partition partition_;
  HeartbeatMonitor monitor_;
  sched::MctScheduler rescue_scratch_;
  std::optional<sim::EngineView> base_view_;
  std::vector<int> owner_;             ///< per task: owning shard or -1
  std::size_t log_cursor_ = 0;
  // Per-round scratch, hoisted so decide() allocates nothing steady-state.
  std::vector<std::uint8_t> used_scratch_;      ///< resource bound this round
  std::vector<std::uint32_t> invoked_;          ///< shards decided this round
  std::vector<std::vector<sim::Assignment>> batches_;
  std::vector<DirEntry> directory_;
  double directory_at_ = 0.0;
  bool directory_fresh_ = false;
  std::uint64_t hb_transitions_seen_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<obs::Gauge*> depth_gauges_;  ///< cluster.shard<i>.queue_depth

  std::size_t steals_ = 0;
  std::size_t stolen_tasks_ = 0;
  std::size_t rescues_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace readys::cluster
