#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "nn/optim.hpp"
#include "rl/config.hpp"
#include "rl/env.hpp"
#include "rl/policy_net.hpp"
#include "rl/vec_env.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace readys::rl {

/// One completed episode, recorded as plain data (no autograd graph):
/// everything a learner needs to re-forward the trajectory and compute a
/// loss. Rewards are the raw environment rewards — the trainer applies
/// its shaping (squash/clip) at update time, exactly once.
struct EpisodeRollout {
  int index = 0;  ///< global episode number (seeds derive from it)
  std::vector<Observation> observations;  ///< one per decision
  std::vector<std::size_t> actions;
  std::vector<double> rewards;    ///< raw env reward after each action
  std::vector<double> log_probs;  ///< log pi(a|s) at act time (PPO)
  std::vector<double> values;     ///< V(s) at act time (PPO)
  double reward_sum = 0.0;        ///< sum of raw rewards
  double makespan = 0.0;
  std::size_t decisions = 0;
};

/// choose_action(probs, &rng) over a 1xN tensor row.
std::size_t sample_categorical(const tensor::Tensor& probs, util::Rng& rng);

/// Seed of episode `index`'s action stream under base `base`: the 64-bit
/// golden-ratio increment (splitmix64's gamma) keeps adjacent episode
/// indices far apart in seed space.
std::uint64_t episode_seed(std::uint64_t base, int index);

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
/// Episodes run in lockstep waves of up to envs.size() episodes, one
/// forward_batched per wave step under NoGradGuard; width 1 trains one
/// episode at a time. Episode i is fully reseeded from its global index:
/// the env from opts.seed + i, its actions from their own stream,
/// episode_seed(stream seed, i). All episodes of one learn() call act
/// under the same weights, so a trajectory never depends on the width,
/// only on how many episodes each learn() call takes.
class Learner {
 public:
  virtual ~Learner() = default;

  Learner(const Learner&) = delete;
  Learner& operator=(const Learner&) = delete;

  /// Trains in place for opts.episodes episodes on `envs` (any width).
  TrainReport train(VecEnv& envs, const TrainOptions& opts);

  /// Applies the configured squash/clip to a terminal reward.
  double shape_reward(double reward) const;

 protected:
  /// `name` tags checkpoints and telemetry rows; the shared stream and
  /// the base of the per-episode action streams seed from
  /// cfg.seed ^ stream_salt.
  Learner(PolicyNet& net, const AgentConfig& cfg, const char* name,
          std::uint64_t stream_salt);

  /// Episodes handed to one learn() call at VecEnv width `width`.
  virtual int episodes_per_learn(std::size_t width) const = 0;

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
  /// Base of the per-episode action streams; a resume restores it from
  /// the checkpoint.
  std::uint64_t stream_seed_;
  /// The shared stream: PPO's minibatch shuffles. Checkpointed as
  /// "sample".
  util::Rng rng_;
  double last_loss_ = std::numeric_limits<double>::quiet_NaN();
  double last_grad_norm_ = std::numeric_limits<double>::quiet_NaN();

 private:
  struct Run;
  const char* name_;
  Run* run_ = nullptr;  ///< loop state while train() runs
};

}  // namespace readys::rl
