#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rl/config.hpp"
#include "rl/inference.hpp"
#include "rl/policy_net.hpp"
#include "serve/policy_store.hpp"
#include "serve/qos_queue.hpp"
#include "serve/session.hpp"
#include "serve/supervisor.hpp"
#include "sim/platform.hpp"

namespace readys::serve {

/// Service-wide knobs. Defaults serve a deterministic, single-worker
/// configuration; the bench and tests override what they exercise.
struct ServiceConfig {
  /// Platform every session runs on.
  int cpus = 2;
  int gpus = 2;
  /// Admission queue capacity. A full queue sheds — the most-backlogged
  /// tenant's newest entry when a noisy neighbor is hogging the queue,
  /// otherwise the incoming submission (see QosQueue::evict_for).
  std::size_t queue_capacity = 64;
  /// Sessions a worker multiplexes per decision round — the width of
  /// the block-diagonal forward_batched pass.
  std::size_t max_active = 8;
  /// Inference worker threads. 0 switches to manual pump mode: no
  /// threads start and the caller drives rounds via pump() — the
  /// deterministic harness the chaos tests build on.
  int workers = 1;
  /// Default per-decision deadline budget in microseconds for sessions
  /// that inherit it (spec.deadline_us == 0). Negative disables the
  /// deadline; 0 is a literal zero budget — every decision degrades to
  /// a one-shot MCT answer, deterministically, without consulting the
  /// clock; positive budgets degrade only decisions whose batched
  /// forward blew them (counted in serve.deadline_timeouts +
  /// serve.fallback_decisions).
  double deadline_us = -1.0;
  /// Transient-fault retries per session (exponential backoff). Faults
  /// classified transient: the env throwing (platform unrecoverable /
  /// stalled). Policy faults (thrown forward, non-finite probabilities)
  /// are permanent — a policy that went NaN will not come back.
  int max_retries = 0;
  /// Base backoff before the first retry, doubling per attempt.
  double retry_backoff_ms = 1.0;
  /// Runaway guard: a session exceeding this many decisions is
  /// quarantined (a cycle-free DAG decides O(tasks) times; anything
  /// wildly beyond that is a livelocked env).
  std::size_t max_session_decisions = 1u << 20;
  /// Watchdog sampling period (ms); 0 disables stall detection (the
  /// supervisor thread still runs whenever workers do — it also owns
  /// worker restarts).
  double watchdog_period_ms = 0.0;
  /// A busy worker whose heartbeat has not advanced for this long is
  /// flagged stalled (logged + stalled() latches true).
  double watchdog_stall_ms = 5000.0;
  /// Record per-session action traces / per-decision latencies /
  /// per-decision weight versions into the SessionResult (tests and the
  /// bench want them; high-rate serving would not).
  bool record_actions = false;
  bool record_latencies = false;
  /// Greedy argmax decisions (serving default). False samples from the
  /// policy with the per-session stream.
  bool greedy = true;
  /// Inference arithmetic for every worker's backend: kF64Ref reproduces
  /// PolicyNet::forward bit-for-bit; kF32Simd runs the float32 SIMD fast
  /// path over the published snapshot — shared by every worker, frozen
  /// per version (argmax agreement pinned by tests, not bit-exact).
  rl::InferenceBackendKind inference_backend =
      rl::InferenceBackendKind::kF64Ref;
  /// Must stay true (false throws std::invalid_argument at
  /// construction): sessions always encode incrementally. Kept only
  /// because readys_bench still sets it; delete it once it stops.
  bool incremental_encoding = true;
  /// QoS policy for tenants without an explicit entry in `tenants`.
  TenantPolicy default_tenant{};
  /// Per-tenant QoS overrides, keyed by SessionSpec::tenant.
  std::map<std::string, TenantPolicy> tenants;
  /// Hot-reload validation gate (probe platform inherits cpus/gpus when
  /// left at 0).
  PolicyStoreConfig reload{};
  /// Worker restart/escalation policy.
  SupervisorConfig supervise{};
  /// Chaos hook, testing only: invoked at the top of every worker round
  /// (slot, per-slot round ordinal); throwing simulates a SIGKILL-style
  /// worker death mid-service — the batch is retired, the worker thread
  /// exits, and the supervisor takes over. Never called in pump mode.
  std::function<void(std::size_t, std::uint64_t)> chaos_round_hook;
};

/// A long-lived, multi-tenant decision service: admits SessionSpecs into
/// a bounded QoS queue (priority classes, per-tenant token buckets,
/// deficit-weighted fair dequeue), multiplexes up to max_active sessions
/// per worker through one block-diagonal forward_batched pass per
/// decision round, and survives sessions, tenants, weights and workers
/// misbehaving.
///
/// Robustness contract:
///  - Admission is bounded and fair: a full queue sheds the abusive
///    tenant first; a rate-limited tenant sheds at submit ("rate
///    limited") without touching anyone else's lane; deadline-class
///    sessions dequeue before normal before batch.
///  - A session whose policy throws or emits non-finite probabilities is
///    quarantined; because forward_batched matches per-observation
///    forward bit-for-bit, the surviving sessions' decision streams are
///    unchanged by the removal (pinned by tests/chaos).
///  - A session whose *environment* faults (platform unrecoverable) is
///    retried with exponential backoff up to max_retries, then
///    quarantined.
///  - A decision that blows its deadline budget degrades to a one-shot
///    MCT answer (sched::one_shot_mct) instead of stalling the batch.
///  - Weights hot-reload through a validated, versioned PolicyStore;
///    workers adopt a snapshot at round boundaries, so every decision
///    executes against exactly one published version and a rejected
///    candidate rolls back to last-good with zero shed sessions.
///  - A worker that dies mid-round retires only its own batch; the
///    supervisor restarts it with exponential backoff and escalates to
///    service-wide degraded mode (one-shot MCT every round) past the
///    restart budget — the service keeps answering.
///  - drain()/shutdown() complete in-flight sessions; abort_shutdown()
///    retires them deterministically at a round boundary with their
///    partial traces recorded.
class DecisionService {
 public:
  /// Outcome of submit(): either an id to look up later, or a shed
  /// reason ("queue full", "draining", "stopped", "rate limited").
  struct Admission {
    bool admitted = false;
    std::uint64_t id = 0;
    std::string reason;
  };

  /// Monotone service-wide counters (mirrored into the serve.* metrics
  /// when telemetry is installed; kept here so tests and the bench do
  /// not depend on the obs layer being live).
  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t aborted = 0;
    std::uint64_t retries = 0;
    std::uint64_t decisions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t reloads = 0;          ///< weight versions published
    std::uint64_t reload_rejects = 0;   ///< candidates rolled back
    std::uint64_t worker_restarts = 0;  ///< supervisor restarts executed
    std::uint64_t tenant_shed = 0;      ///< rate-limit + eviction sheds
  };

  /// Per-tenant slice of the admission/retirement accounting, keyed by
  /// the normalized tenant name (the noisy-neighbor bench reads this).
  struct TenantCounters {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;  ///< rate-limited, evicted, or queue-full
    std::uint64_t completed = 0;
  };

  /// The service serves `net`'s weights via a versioned PolicyStore
  /// snapshot (architecture rebuilt from `agent`), so the caller's net
  /// is never touched after construction and workers never share mutable
  /// tensors. `agent.window` also sizes every session's encoder.
  DecisionService(const rl::PolicyNet& net, const rl::AgentConfig& agent,
                  ServiceConfig cfg);

  /// Aborts any in-flight work (abort_shutdown) and joins the threads.
  ~DecisionService();

  DecisionService(const DecisionService&) = delete;
  DecisionService& operator=(const DecisionService&) = delete;

  /// Non-blocking admission. Shedding is a normal outcome, not an
  /// exception: the caller reads `reason` and backs off.
  Admission submit(const SessionSpec& spec);

  /// Manual pump mode (workers == 0): runs one decision round on the
  /// calling thread and returns the number of sessions stepped (0 when
  /// nothing is runnable). Throws std::logic_error when worker threads
  /// are running — exactly one driver may step sessions.
  std::size_t pump();

  /// Validates + publishes new weights for subsequent decision rounds
  /// (workers adopt at their next round boundary). Rejected while
  /// draining — a service on its way down must not change what it
  /// serves. `force` republishes bit-identical weights as a new version
  /// (reload-storm chaos) instead of reporting kNoOp.
  ReloadResult reload(const rl::PolicyNet& candidate, bool force = false);
  /// Same gate, candidate read from a readys-ckpt/2 file (CRC-checked;
  /// v1 rejected). This is what --reload-watch and SIGHUP drive.
  ReloadResult reload_from_file(const std::string& path, bool force = false);

  /// Stops admission (further submits shed with "draining"); queued and
  /// active sessions still run to completion.
  void drain();

  /// drain() + blocks until every admitted session retired, then stops
  /// the workers. In pump mode the caller must keep pump()ing until
  /// idle() before shutdown() returns meaningfully (it will not pump on
  /// the caller's behalf).
  void shutdown();

  /// Deterministic checkpoint-and-abort: stops the workers at the next
  /// decision-round boundary and retires every queued and active session
  /// as kAborted with its partial action trace recorded.
  void abort_shutdown();

  /// Blocks until no admitted session remains queued or active. Only
  /// meaningful with worker threads (pump mode would deadlock; use
  /// idle() in the pump loop instead).
  void wait_idle();

  bool idle() const;
  std::size_t queue_depth() const;
  std::size_t active_count() const;
  bool draining() const;
  /// Latched true when the watchdog saw a busy worker make no progress
  /// for watchdog_stall_ms.
  bool stalled() const noexcept {
    return stalled_.load(std::memory_order_relaxed);
  }
  /// Latched true once the supervisor escalated past the restart budget:
  /// every round degrades to one-shot MCT until the service restarts.
  bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }

  Counters counters() const;
  std::map<std::string, TenantCounters> tenant_counters() const;

  /// Snapshot of every retired session so far, ascending id.
  std::vector<SessionResult> results() const;

  const ServiceConfig& config() const noexcept { return cfg_; }
  const sim::Platform& platform() const noexcept { return platform_; }
  PolicyStore& policy_store() noexcept { return *store_; }
  std::uint64_t active_weight_version() const {
    return store_->active_version();
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// One worker's view of the policy: the snapshot it adopted at the
  /// last round boundary plus the backend built over it. For kF64Ref the
  /// slot keeps a private replica (PolicyNet forwards are not
  /// thread-safe to share); for kF32Simd the backend shares the
  /// snapshot's frozen f32 weights — one snapshot per version, fleet
  /// wide. Slot 0 doubles as the pump-mode slot.
  struct WorkerPolicy {
    std::uint64_t version = 0;
    std::shared_ptr<const PolicyStore::Snapshot> snap;
    std::unique_ptr<rl::PolicyNet> replica;
    std::unique_ptr<rl::InferenceBackend> backend;
  };

  /// Builds a session for (spec, attempt), reusing the graph cache.
  std::unique_ptr<Session> build_session(std::uint64_t id,
                                         const SessionSpec& spec,
                                         int attempt);

  /// Re-syncs a slot with the store's current snapshot (no-op when the
  /// version is unchanged — the common case costs one mutexed pointer
  /// read per round).
  void adopt_policy(WorkerPolicy& wp);

  /// One decision round over `batch` using `wp`'s backend (one per
  /// worker, never shared): top-up happens in the caller. Retired
  /// sessions leave `batch`; the return value is the number of sessions
  /// stepped.
  std::size_t run_round(std::vector<std::unique_ptr<Session>>& batch,
                        WorkerPolicy& wp);

  /// Pulls due queue entries into `batch` up to max_active. Returns the
  /// earliest not_before among entries left behind (Clock::time_point::max()
  /// when none are waiting on backoff).
  Clock::time_point top_up(std::vector<std::unique_ptr<Session>>& batch);

  /// `was_active` distinguishes sessions retired out of a worker batch
  /// (decrement active_) from queued-only ones (evictions, abort sweep).
  void retire(std::unique_ptr<Session> session, SessionState state,
              std::string error, bool was_active = true);
  /// Transient-fault path: re-enqueue with backoff or quarantine when
  /// retries are exhausted / the queue is full.
  void retry_or_quarantine(std::unique_ptr<Session> session,
                           const std::string& why);

  const TenantPolicy& policy_for(const std::string& tenant) const;

  void worker_loop(std::size_t slot);
  void spawn_worker(std::size_t slot);  ///< caller holds mutex_
  void supervisor_loop();
  void update_gauges() const;

  ServiceConfig cfg_;
  rl::AgentConfig agent_;
  sim::Platform platform_;
  /// Graph cache: sessions on the same (app, tiles) share one immutable
  /// TaskGraph (SimEngine and the encoder hold pointers into it).
  std::map<std::pair<int, int>, std::shared_ptr<const dag::TaskGraph>>
      graphs_;
  std::mutex graphs_mutex_;

  /// Versioned weight snapshots; reload() publishes here, workers adopt
  /// per round.
  std::unique_ptr<PolicyStore> store_;
  /// Per-slot adopted policy (size max(1, workers); slot 0 serves pump
  /// mode). Each slot is touched only by its own worker thread / the
  /// pump caller — never shared.
  std::vector<WorkerPolicy> slots_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for runnable work
  std::condition_variable idle_cv_;   ///< wait_idle / shutdown wait here
  // The supervisor gets its own cv: if it shared work_cv_, a notify_one
  // meant for a worker could wake the supervisor instead and be
  // swallowed by its timed re-wait — a lost wakeup that strands queued
  // sessions.
  std::condition_variable watchdog_cv_;
  QosQueue queue_;
  /// Token buckets, keyed by normalized tenant (only tenants with a
  /// rate limit get one).
  struct Bucket {
    double tokens = 0.0;
    Clock::time_point last{};
    bool primed = false;
  };
  std::map<std::string, Bucket> buckets_;
  std::map<std::string, TenantCounters> tenant_counters_;
  std::vector<SessionResult> retired_;
  std::uint64_t next_id_ = 1;
  std::size_t in_flight_ = 0;  ///< queued + active (in some worker batch)
  std::size_t active_ = 0;     ///< sessions currently in worker batches
  bool draining_ = false;
  bool stop_ = false;  ///< abort: workers retire their batches and exit

  std::atomic<bool> stalled_{false};
  std::atomic<bool> degraded_{false};
  Counters counters_;

  std::vector<std::thread> workers_;
  std::thread supervisor_;
  WorkerSupervisor sup_;
  /// Per-slot death flag + scheduled restart time (mutex_-guarded).
  std::vector<char> dead_;
  std::vector<Clock::time_point> restart_at_;
  /// Per-worker progress heartbeat + busy flag for the watchdog.
  struct WorkerBeat {
    std::atomic<std::uint64_t> beat{0};
    std::atomic<bool> busy{false};
  };
  std::vector<std::unique_ptr<WorkerBeat>> beats_;
};

}  // namespace readys::serve
