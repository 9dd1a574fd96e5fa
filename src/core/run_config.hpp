#pragma once

#include <cstdint>
#include <string>

#include "core/apps.hpp"
#include "rl/config.hpp"
#include "rl/env.hpp"
#include "sim/comm_model.hpp"
#include "sim/platform.hpp"

namespace readys::core {

/// One experiment, one document. RunConfig folds the knobs that used to
/// be scattered across rl::AgentConfig, rl::TrainOptions,
/// SchedulingEnv::Config, ad-hoc CLI positionals and READYS_* env
/// variables into a single struct with a strict JSON round-trip
/// (schema "readys-run/1", see docs/api.md). The CLI accepts it via
/// `--config run.json` and every manifest embeds it verbatim, so a run
/// is reproducible from its manifest alone.
struct RunConfig {
  // --- instance ---
  std::string app = "cholesky";  ///< cholesky | lu | qr
  int tiles = 8;
  int ncpu = 2;
  int ngpu = 2;

  // --- environment ---
  double sigma = 0.0;
  bool random_offer = false;

  // --- communication model (sim::CommModel; 0 bytes = disabled) ---
  double comm_tile_bytes = 0.0;  ///< payload per dependency edge
  double comm_bandwidth = 0.0;   ///< bytes/ms across locality domains
  double comm_latency_ms = 0.0;  ///< per-transfer setup cost

  // --- cluster-scale sharded scheduling (src/cluster) ---
  int cluster_shards = 1;        ///< resource shards; 1 = centralized
  double cluster_stale_ms = 5.0; ///< cross-shard directory staleness bound
  double cluster_hb_ms = 1.0;    ///< heartbeat period (sim time)
  int cluster_parallel = 0;      ///< >0: threads for per-shard decides

  // --- run ---
  std::string scheduler = "mct";  ///< a sched::registry() name
  std::string trainer = "a2c";    ///< a2c | ppo
  int episodes = 200;
  int num_envs = 1;  ///< VecEnv width (1 = one episode at a time)
  std::uint64_t seed = 1;
  std::string checkpoint_dir;
  int checkpoint_every = 50;
  int checkpoint_retain = 3;
  bool resume = false;
  int divergence_patience = 3;

  // --- decision service (serve-bench; see src/serve) ---
  int serve_sessions = 64;         ///< sessions the load generator offers
  double serve_rate = 50.0;        ///< offered arrivals per second
  int serve_queue = 64;            ///< admission queue capacity
  int serve_active = 8;            ///< sessions batched per decision round
  int serve_workers = 1;           ///< inference worker threads
  /// Per-decision budget in microseconds: negative disables the
  /// deadline, 0 degrades every decision to one-shot MCT
  /// deterministically, positive degrades only blown decisions.
  double serve_deadline_us = -1.0;
  int serve_retries = 0;           ///< transient-fault retries per session
  /// Arrival process for the load generator: poisson | bursty | pareto
  /// (serve::ArrivalMode).
  std::string serve_arrival = "poisson";
  double serve_burst_factor = 4.0;  ///< bursty: ON-state rate multiplier
  double serve_pareto_alpha = 1.5;  ///< pareto: tail index (> 1)
  /// Per-tenant token bucket for the default tenant policy: sustained
  /// admissions/second (0 disables rate limiting) and bucket depth.
  double serve_tenant_rate = 0.0;
  double serve_tenant_burst = 8.0;
  /// Worker deaths tolerated before the supervisor degrades the service
  /// to one-shot MCT for every round.
  int serve_restart_budget = 3;
  /// Checkpoint file polled for hot weight reloads by the serve CLI
  /// ("" disables); SIGHUP forces an immediate reload of the same path.
  std::string serve_reload_watch;

  // --- inference fast path (rl::InferenceBackend) ---
  /// Arithmetic for policy evaluation on the decision path: "f64ref"
  /// reproduces training-precision forward bit-for-bit, "f32simd" runs
  /// the float32 SIMD backend. Honored by serve-bench, cluster-bench and
  /// the registry default for "readys" specs; training always uses f64.
  std::string inference_backend = "f64ref";

  rl::AgentConfig agent;

  /// Serializes to a single-line JSON object, "config":"readys-run/1"
  /// first, fields in declaration order, the agent nested under
  /// "agent". Doubles carry 15 significant digits, so
  /// from_json(to_json()) is the identity for round-trippable values.
  std::string to_json() const;

  /// Strict parse of a "readys-run/1" document: unknown keys, type
  /// mismatches, malformed JSON, and trailing garbage all throw
  /// std::invalid_argument. Missing keys keep their defaults, so a
  /// config file states only what it overrides.
  static RunConfig from_json(const std::string& json);

  /// from_json over a file's contents; throws std::runtime_error when
  /// the file cannot be read.
  static RunConfig from_file(const std::string& path);

  /// Defaults overlaid with the legacy READYS_* environment variables
  /// (READYS_APP, READYS_TILES, READYS_NCPU, READYS_NGPU, READYS_SIGMA,
  /// READYS_TRAIN_EPISODES, READYS_HIDDEN, READYS_NUM_ENVS,
  /// READYS_SEED) and the decision-service knobs (READYS_SERVE_SESSIONS,
  /// READYS_SERVE_RATE, READYS_SERVE_QUEUE, READYS_SERVE_ACTIVE,
  /// READYS_SERVE_WORKERS, READYS_SERVE_DEADLINE_US,
  /// READYS_SERVE_RETRIES), the inference fast path
  /// (READYS_INFERENCE_BACKEND), the communication axis (READYS_COMM_TILE_BYTES,
  /// READYS_COMM_BANDWIDTH, READYS_COMM_LATENCY_MS) and the cluster knobs
  /// (READYS_CLUSTER_SHARDS, READYS_CLUSTER_STALE_MS, READYS_CLUSTER_HB_MS,
  /// READYS_CLUSTER_PARALLEL), so benches stay tunable without a config
  /// file.
  static RunConfig from_env();

  /// Sanity-checks the cross-field constraints (known app/trainer,
  /// positive sizes, finite non-negative sigma...); throws
  /// std::invalid_argument with the offending field named.
  void validate() const;

  // --- derived builders ---
  App parsed_app() const { return parse_app(app); }
  dag::TaskGraph make_graph() const { return core::make_graph(parsed_app(), tiles); }
  sim::CostModel make_costs() const { return core::make_costs(parsed_app()); }
  sim::Platform make_platform() const { return sim::Platform::hybrid(ncpu, ngpu); }
  /// True when the comm axis is active (comm_tile_bytes > 0).
  bool has_comm() const noexcept { return comm_tile_bytes > 0.0; }
  sim::CommModel make_comm() const {
    return has_comm()
               ? sim::CommModel(comm_tile_bytes, comm_bandwidth, comm_latency_ms)
               : sim::CommModel::free();
  }
  rl::SchedulingEnv::Config env_config() const;
  rl::TrainOptions train_options() const;
};

}  // namespace readys::core
