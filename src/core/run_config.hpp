#pragma once

#include <cstdint>
#include <string>

#include "core/apps.hpp"
#include "rl/config.hpp"
#include "rl/env.hpp"
#include "sim/comm_model.hpp"
#include "sim/platform.hpp"

namespace readys::core {

/// readys_cli subcommands that take RunConfig flags; Field::commands is
/// a mask of them.
enum Subcommand : unsigned { kTrain = 1, kServeBench = 2, kClusterBench = 4 };

/// The bound RunConfig::validate() checks on one field.
struct Bound {
  enum Kind { kNone, kAtLeast, kAbove, kFinite } kind = kNone;
  double min = 0.0;
};
constexpr Bound at_least(double min) { return {Bound::kAtLeast, min}; }
constexpr Bound above(double min) { return {Bound::kAbove, min}; }
constexpr Bound finite() { return {Bound::kFinite, 0.0}; }

/// One RunConfig field as each input names it. The member's type (int,
/// std::uint64_t, double, bool or std::string) sets how it is parsed; a
/// bool flag is a switch that takes no value.
struct Field {
  const char* key;             ///< JSON key, under "agent" when `agent`
  const char* env = nullptr;   ///< READYS_* variable, if any
  const char* flag = nullptr;  ///< readys_cli flag, if any
  unsigned commands = 0;       ///< Subcommand bits that accept `flag`
  Bound bound = {};
  bool agent = false;  ///< an rl::AgentConfig field

  /// The key as errors name it: "tiles", "agent.hidden".
  std::string name() const { return agent ? std::string("agent.") + key : key; }
};

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
  /// first, then the for_each_field() rows in order, the agent nested
  /// under "agent". Doubles carry 15 significant digits, so
  /// from_json(to_json()) is the identity for round-trippable values.
  std::string to_json() const;

  /// Strict parse of a "readys-run/1" document: unknown keys, type
  /// mismatches, malformed JSON, and trailing garbage all throw
  /// std::invalid_argument naming the key. Missing keys keep their
  /// defaults, so a config file states only what it overrides.
  static RunConfig from_json(const std::string& json);

  /// from_json over a file's contents; throws std::runtime_error when
  /// the file cannot be read.
  static RunConfig from_file(const std::string& path);

  /// `base` overlaid with the READYS_* variable of every row that has
  /// one (see for_each_field), so benches stay tunable without a config
  /// file. An unset or empty variable keeps `base`'s value; a malformed
  /// one throws std::invalid_argument naming the variable.
  static RunConfig from_env(RunConfig base);
  static RunConfig from_env() { return from_env(RunConfig()); }

  /// Applies one readys_cli flag that `cmd` accepts: `args[0]` is the
  /// flag, `args[1]` its value unless the field is a bool (a switch such
  /// as `--resume`). Returns the arguments consumed, 0 when `args[0]` is
  /// not a flag of `cmd`. A missing or malformed value throws
  /// std::invalid_argument naming the flag.
  int apply_flag(Subcommand cmd, int argc, const char* const* args);

  /// Checks every row's bound, then the cross-field constraints (known
  /// app/trainer/arrival/backend, non-empty scheduler, at least one
  /// resource, bandwidth for an active comm axis); throws
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

/// RunConfig's one list of fields, in to_json() order: calls
/// `v(row, cfg.member)` once per field, `cfg` const or not. to_json,
/// from_json, from_env, apply_flag, validate's per-field half and the
/// readys_cli usage text are each one pass over it.
template <class Cfg, class V>
void for_each_field(Cfg& c, V&& v) {
  v({.key = "app", .env = "READYS_APP", .flag = "--app",
     .commands = kClusterBench}, c.app);
  v({.key = "tiles", .env = "READYS_TILES", .flag = "--tiles",
     .commands = kClusterBench, .bound = at_least(1)}, c.tiles);
  v({.key = "ncpu", .env = "READYS_NCPU", .flag = "--ncpu",
     .commands = kClusterBench, .bound = at_least(0)}, c.ncpu);
  v({.key = "ngpu", .env = "READYS_NGPU", .flag = "--ngpu",
     .commands = kClusterBench, .bound = at_least(0)}, c.ngpu);
  v({.key = "sigma", .env = "READYS_SIGMA", .flag = "--sigma",
     .commands = kClusterBench, .bound = at_least(0)}, c.sigma);
  v({.key = "random_offer"}, c.random_offer);
  v({.key = "comm_tile_bytes", .env = "READYS_COMM_TILE_BYTES",
     .flag = "--comm-tile-bytes", .commands = kClusterBench,
     .bound = at_least(0)}, c.comm_tile_bytes);
  v({.key = "comm_bandwidth", .env = "READYS_COMM_BANDWIDTH",
     .flag = "--comm-bandwidth", .commands = kClusterBench,
     .bound = at_least(0)}, c.comm_bandwidth);
  v({.key = "comm_latency_ms", .env = "READYS_COMM_LATENCY_MS",
     .flag = "--comm-latency-ms", .commands = kClusterBench,
     .bound = at_least(0)}, c.comm_latency_ms);
  v({.key = "cluster_shards", .env = "READYS_CLUSTER_SHARDS",
     .flag = "--shards", .commands = kClusterBench, .bound = at_least(1)},
    c.cluster_shards);
  v({.key = "cluster_stale_ms", .env = "READYS_CLUSTER_STALE_MS",
     .flag = "--stale-ms", .commands = kClusterBench, .bound = at_least(0)},
    c.cluster_stale_ms);
  v({.key = "cluster_hb_ms", .env = "READYS_CLUSTER_HB_MS",
     .flag = "--hb-ms", .commands = kClusterBench, .bound = above(0)},
    c.cluster_hb_ms);
  v({.key = "cluster_parallel", .env = "READYS_CLUSTER_PARALLEL",
     .flag = "--parallel", .commands = kClusterBench, .bound = at_least(0)},
    c.cluster_parallel);
  v({.key = "scheduler", .flag = "--scheduler", .commands = kClusterBench},
    c.scheduler);
  v({.key = "trainer", .flag = "--trainer", .commands = kTrain}, c.trainer);
  v({.key = "episodes", .env = "READYS_TRAIN_EPISODES",
     .bound = at_least(1)}, c.episodes);
  v({.key = "num_envs", .env = "READYS_NUM_ENVS", .flag = "--num-envs",
     .commands = kTrain, .bound = at_least(1)}, c.num_envs);
  v({.key = "seed", .env = "READYS_SEED", .flag = "--seed",
     .commands = kClusterBench}, c.seed);
  v({.key = "checkpoint_dir", .flag = "--checkpoint-dir",
     .commands = kTrain}, c.checkpoint_dir);
  v({.key = "checkpoint_every", .flag = "--checkpoint-every",
     .commands = kTrain, .bound = at_least(1)}, c.checkpoint_every);
  v({.key = "checkpoint_retain", .flag = "--checkpoint-retain",
     .commands = kTrain, .bound = at_least(1)}, c.checkpoint_retain);
  v({.key = "resume", .flag = "--resume", .commands = kTrain}, c.resume);
  v({.key = "divergence_patience"}, c.divergence_patience);
  v({.key = "serve_sessions", .env = "READYS_SERVE_SESSIONS",
     .flag = "--sessions", .commands = kServeBench, .bound = at_least(0)},
    c.serve_sessions);
  v({.key = "serve_rate", .env = "READYS_SERVE_RATE", .flag = "--rate",
     .commands = kServeBench, .bound = above(0)}, c.serve_rate);
  v({.key = "serve_queue", .env = "READYS_SERVE_QUEUE", .flag = "--queue",
     .commands = kServeBench, .bound = at_least(1)}, c.serve_queue);
  v({.key = "serve_active", .env = "READYS_SERVE_ACTIVE",
     .flag = "--active", .commands = kServeBench, .bound = at_least(1)},
    c.serve_active);
  v({.key = "serve_workers", .env = "READYS_SERVE_WORKERS",
     .flag = "--workers", .commands = kServeBench, .bound = at_least(0)},
    c.serve_workers);
  // Negative disables the deadline and 0 degrades every decision.
  v({.key = "serve_deadline_us", .env = "READYS_SERVE_DEADLINE_US",
     .flag = "--deadline-us", .commands = kServeBench, .bound = finite()},
    c.serve_deadline_us);
  v({.key = "serve_retries", .env = "READYS_SERVE_RETRIES",
     .flag = "--retries", .commands = kServeBench, .bound = at_least(0)},
    c.serve_retries);
  v({.key = "serve_arrival", .env = "READYS_SERVE_ARRIVAL",
     .flag = "--arrival", .commands = kServeBench}, c.serve_arrival);
  v({.key = "serve_burst_factor", .env = "READYS_SERVE_BURST_FACTOR",
     .flag = "--burst-factor", .commands = kServeBench,
     .bound = at_least(1)}, c.serve_burst_factor);
  // A Pareto tail index <= 1 has no finite mean.
  v({.key = "serve_pareto_alpha", .env = "READYS_SERVE_PARETO_ALPHA",
     .flag = "--pareto-alpha", .commands = kServeBench, .bound = above(1)},
    c.serve_pareto_alpha);
  v({.key = "serve_tenant_rate", .env = "READYS_SERVE_TENANT_RATE",
     .flag = "--tenant-rate", .commands = kServeBench,
     .bound = at_least(0)}, c.serve_tenant_rate);
  v({.key = "serve_tenant_burst", .env = "READYS_SERVE_TENANT_BURST",
     .flag = "--tenant-burst", .commands = kServeBench,
     .bound = at_least(1)}, c.serve_tenant_burst);
  v({.key = "serve_restart_budget", .env = "READYS_SERVE_RESTART_BUDGET",
     .flag = "--restart-budget", .commands = kServeBench,
     .bound = at_least(0)}, c.serve_restart_budget);
  v({.key = "serve_reload_watch", .env = "READYS_SERVE_RELOAD_WATCH",
     .flag = "--reload-watch", .commands = kServeBench},
    c.serve_reload_watch);
  v({.key = "inference_backend", .env = "READYS_INFERENCE_BACKEND",
     .flag = "--backend", .commands = kServeBench | kClusterBench},
    c.inference_backend);

  v({.key = "window", .bound = at_least(1), .agent = true}, c.agent.window);
  v({.key = "gcn_layers", .bound = at_least(1), .agent = true},
    c.agent.gcn_layers);
  v({.key = "hidden", .env = "READYS_HIDDEN", .bound = at_least(1),
     .agent = true}, c.agent.hidden);
  v({.key = "lr", .agent = true}, c.agent.lr);
  v({.key = "gamma", .agent = true}, c.agent.gamma);
  v({.key = "entropy_beta", .agent = true}, c.agent.entropy_beta);
  v({.key = "entropy_decay", .agent = true}, c.agent.entropy_decay);
  v({.key = "value_coef", .agent = true}, c.agent.value_coef);
  v({.key = "unroll", .agent = true}, c.agent.unroll);
  v({.key = "grad_clip", .agent = true}, c.agent.grad_clip);
  v({.key = "normalize_advantage", .agent = true},
    c.agent.normalize_advantage);
  v({.key = "squash_reward", .agent = true}, c.agent.squash_reward);
  v({.key = "reward_clip", .agent = true}, c.agent.reward_clip);
  v({.key = "critic_sees_resources", .agent = true},
    c.agent.critic_sees_resources);
  v({.key = "seed", .agent = true}, c.agent.seed);
}

}  // namespace readys::core
