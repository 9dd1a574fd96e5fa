#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/apps.hpp"
#include "dag/task_graph.hpp"
#include "rl/config.hpp"
#include "rl/inference.hpp"
#include "rl/policy_net.hpp"
#include "sim/platform.hpp"

namespace readys::serve {

/// Outcome class of a reload attempt.
enum class ReloadStatus {
  kPublished,  ///< candidate validated and is now the active version
  kNoOp,       ///< candidate is bit-identical to the active weights
  kRejected,   ///< candidate failed validation; last-good stays active
};

const char* reload_status_name(ReloadStatus s);

struct ReloadResult {
  ReloadStatus status = ReloadStatus::kRejected;
  /// Active version AFTER the call — the new version on kPublished, the
  /// unchanged last-good version otherwise (rollback is implicit: the
  /// active snapshot is never replaced until a candidate passes).
  std::uint64_t version = 0;
  std::string reason;  ///< typed reject reason / no-op detail ("" on publish)
};

/// Validation-gate knobs. The gate shadow-evaluates every candidate on a
/// pinned probe instance before it can serve traffic: a greedy episode
/// over the probe DAG must produce finite policy outputs at every
/// decision, terminate within a bounded decision count, and land within
/// max_makespan_factor of the golden one-shot-MCT makespan computed at
/// store construction. NaN weights, truncated checkpoints and policies
/// that saturated into nonsense all fail here — the fleet keeps serving
/// last-good.
struct PolicyStoreConfig {
  core::App probe_app = core::App::kCholesky;
  int probe_tiles = 4;
  std::uint64_t probe_seed = 7;
  /// Probe platform; <= 0 cpus means "inherit the service platform"
  /// (DecisionService fills these from its own ServiceConfig).
  int probe_cpus = 0;
  int probe_gpus = 0;
  /// Sanity bound: probe makespan <= factor * golden MCT makespan.
  /// Generous by design — an untrained policy must pass, a NaN or
  /// saturated one must not.
  double max_makespan_factor = 10.0;
  bool validate = true;  ///< false skips the gate (bench storm plumbing)
};

/// Process-wide store of versioned, atomically-swappable policy
/// snapshots — the hot-reload backbone of the DecisionService. One
/// snapshot owns an immutable PolicyNet (weights never touched after
/// publication) plus one frozen f32 InferenceWeights shared by every
/// worker backend, closing the "one snapshot across workers" follow-up
/// from the inference-backend PR.
///
/// Concurrency contract: current() hands out a shared_ptr under a
/// mutex; workers adopt a snapshot at round boundaries and run the whole
/// round against it, so every decision executes against exactly one
/// published version (no torn reads — pinned by the reload chaos suite
/// under tsan). Reloads serialize on the same mutex; a failed candidate
/// never replaces the active snapshot, which IS the rollback semantics.
class PolicyStore {
 public:
  struct Snapshot {
    std::uint64_t version = 0;
    std::shared_ptr<const rl::PolicyNet> net;
    std::shared_ptr<const rl::InferenceWeights> f32;
  };

  struct Counters {
    std::uint64_t published = 0;  ///< successful reloads (excl. initial)
    std::uint64_t rejected = 0;
    std::uint64_t noops = 0;
  };

  /// Publishes `initial` as version 1 without validation (the weights
  /// the service was constructed with are trusted — there is no
  /// last-good to fall back to yet). `agent` must describe the net's
  /// architecture; candidates are rebuilt from it.
  PolicyStore(const rl::PolicyNet& initial, rl::AgentConfig agent,
              PolicyStoreConfig cfg);

  /// The active snapshot. Never null.
  std::shared_ptr<const Snapshot> current() const;
  std::uint64_t active_version() const;

  /// Validates and publishes a candidate's weights. `force` publishes a
  /// bit-identical candidate as a new version instead of reporting
  /// kNoOp (the reload-storm chaos path: swap machinery exercised, the
  /// served function unchanged).
  ReloadResult reload_from_net(const rl::PolicyNet& candidate,
                               bool force = false);

  /// Loads candidate weights from a `readys-ckpt/2` file. The whole
  /// document is CRC-checked and parsed before anything is adopted;
  /// legacy v1 checkpoints are rejected with a typed reason (their
  /// weights carry no integrity footer — not trustworthy for a live
  /// swap). File errors, truncation, architecture mismatches and
  /// validation failures all reject with last-good still active.
  ReloadResult reload_from_file(const std::string& path, bool force = false);

  Counters counters() const;
  std::string last_reject_reason() const;

 private:
  std::unique_ptr<rl::PolicyNet> clone_arch() const;
  /// "" when the candidate passes; otherwise the typed failure reason.
  std::string validate_candidate(const rl::PolicyNet& candidate) const;
  ReloadResult publish_or_reject(std::unique_ptr<rl::PolicyNet> candidate,
                                 bool force, const char* origin);
  ReloadResult reject(const std::string& reason);

  rl::AgentConfig agent_;
  PolicyStoreConfig cfg_;
  int node_features_ = 0;
  int resource_features_ = 0;
  sim::Platform probe_platform_;
  std::shared_ptr<const dag::TaskGraph> probe_graph_;
  double golden_mct_makespan_ = 0.0;

  mutable std::mutex mutex_;
  std::shared_ptr<const Snapshot> current_;
  Counters counters_;
  std::string last_reject_;
};

}  // namespace readys::serve
