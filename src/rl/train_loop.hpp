#pragma once

#include <cstdint>
#include <limits>
#include <shared_mutex>
#include <string>
#include <vector>

#include "nn/optim.hpp"
#include "rl/async.hpp"
#include "rl/config.hpp"
#include "rl/env.hpp"
#include "rl/policy_net.hpp"
#include "rl/vec_env.hpp"
#include "util/rng.hpp"

namespace readys::rl {

/// Applies the configured squash/clip (see AgentConfig) to a terminal
/// reward. Shared by the A2C and PPO trainers. Throws std::domain_error
/// on a non-finite reward — a NaN here means the simulator or the HEFT
/// reference is corrupt, and squashing/clipping would silently launder
/// it into a plausible-looking value.
double shape_reward(const AgentConfig& cfg, double reward);

/// Summary of one training run.
struct TrainReport {
  std::vector<double> episode_rewards;
  std::vector<double> episode_makespans;
  double best_makespan = 0.0;
  double final_mean_reward = 0.0;  ///< mean reward over the last 20%
  std::size_t updates = 0;
  /// Updates skipped because the loss or a gradient went NaN/Inf (the
  /// poisoned batch is dropped; weights and Adam moments stay clean).
  std::size_t skipped_updates = 0;
  /// Times the weights were rolled back to the last good snapshot after
  /// `TrainOptions::divergence_patience` consecutive divergent updates.
  std::size_t rollbacks = 0;
  /// First episode index actually trained (non-zero after --resume).
  int start_episode = 0;
};

/// Loss and gradient norm of the update that covered one episode, for
/// its telemetry row (NaN when no single update covers it).
struct UpdateStats {
  double loss = std::numeric_limits<double>::quiet_NaN();
  double grad_norm = std::numeric_limits<double>::quiet_NaN();
};

/// Base of the A2C and PPO trainers. train() is the one training loop
/// both share (src/rl/train_loop.cpp): resume, checkpoint cadence, the
/// last-good snapshot and divergence guard, the entropy schedule, the
/// telemetry episode rows and the final report all live there, once. A
/// subclass supplies only its rollout-to-loss step (learn()).
///
/// Episodes come from one of two rollout sources, both fully reseeded
/// per global episode index i (env seed opts.seed + i):
/// - lockstep (default): waves of up to envs.size() episodes stepped
///   together, one forward_batched per wave step under NoGradGuard,
///   actions drawn from the shared stream in ascending env order. Width
///   1 trains one episode at a time.
/// - async (opts.async): ActorPool threads each own one env slot and a
///   policy replica synced at episode start; train() releases exactly
///   the episodes it is about to learn from, so actors are parked while
///   the weights change and every run is bit-reproducible for any actor
///   count. Per-episode action streams derive from (stream seed, i).
class Learner {
 public:
  virtual ~Learner() = default;

  Learner(const Learner&) = delete;
  Learner& operator=(const Learner&) = delete;

  /// Trains in place for opts.episodes episodes on `envs` (any width).
  TrainReport train(VecEnv& envs, const TrainOptions& opts);

  /// Rolls out the current policy without learning; returns makespans.
  /// `greedy` picks argmax actions, otherwise samples from π with a
  /// per-call stream, so the result is a pure function of (weights,
  /// seed_base) and never of the training history.
  std::vector<double> evaluate(SchedulingEnv& env, int episodes,
                               std::uint64_t seed_base, bool greedy);

  /// Argmax (first maximum) when `greedy`, else sample_categorical.
  std::size_t select_action(const PolicyNet::Output& out, bool greedy,
                            util::Rng& rng) const;

  /// Applies the configured squash/clip to a terminal reward.
  double shape_reward(double reward) const;

 protected:
  /// `name` tags checkpoints and telemetry rows; the shared sampling
  /// stream (and the async per-episode streams) seed from
  /// cfg.seed ^ stream_salt.
  Learner(PolicyNet& net, const AgentConfig& cfg, const char* name,
          std::uint64_t stream_salt);

  /// Episodes handed to one learn() call.
  virtual int episodes_per_learn(const TrainOptions& opts,
                                 std::size_t width) const = 0;

  /// Learns from consecutive episodes, sorted by index; fills stats[i]
  /// for eps[i] and returns the number of updates to count in the
  /// report. Each gradient step's outcome goes through guard().
  virtual std::size_t learn(std::vector<EpisodeRollout>& eps,
                            std::vector<UpdateStats>& stats) = 0;

  /// The reward the report and telemetry record for one episode.
  virtual double reported_reward(const EpisodeRollout& e) const = 0;

  /// Entropy-ratio factor for episode `index`: the linear anneal of
  /// AgentConfig::entropy_decay over the current run, else 1.
  double entropy_scale(int index) const;

  /// Zero-grad, backward, global-norm clip and — when the loss and the
  /// norm are finite — one optimizer step. Returns false (weights and
  /// moments untouched) when the update was skipped.
  bool apply_loss(const tensor::Var& loss);

  /// The divergence guard: a skipped update adds `units` to the streak;
  /// reaching TrainOptions::divergence_patience restores the last good
  /// snapshot and resets the optimizer.
  void guard(bool applied, int units);

  PolicyNet* net_;
  AgentConfig cfg_;
  nn::Adam optimizer_;
  std::uint64_t stream_seed_;
  /// The shared stream: lockstep action sampling (and PPO's minibatch
  /// shuffles). Checkpointed as "sample".
  util::Rng rng_;
  double last_loss_ = std::numeric_limits<double>::quiet_NaN();
  double last_grad_norm_ = std::numeric_limits<double>::quiet_NaN();

 private:
  struct Run;
  const char* name_;
  Run* run_ = nullptr;  ///< loop state while train() runs
  /// Optimizer steps and rollbacks write the weights under it; async
  /// actors hold it shared while copying them into their replicas.
  std::shared_mutex net_mutex_;
};

}  // namespace readys::rl
