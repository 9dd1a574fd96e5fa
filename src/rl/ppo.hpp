#pragma once

#include <vector>

#include "rl/train_loop.hpp"

namespace readys::rl {

/// PPO-specific hyper-parameters (the shared ones — lr, gamma, entropy,
/// reward shaping — come from AgentConfig).
struct PpoConfig {
  int rollout_episodes = 8;  ///< episodes per data-collection round
  int epochs = 4;            ///< optimization passes over each round
  int minibatch = 64;        ///< steps per gradient update
  double clip = 0.2;         ///< PPO clip range epsilon
};

/// Proximal Policy Optimization (clipped surrogate) on the scheduling
/// MDP. The paper suggests more recent policy-gradient methods as future
/// work (§VI); PPO reuses the same PolicyNet, environment, reward
/// shaping and training loop as the A2C trainer, so the two are
/// directly comparable (see bench/ablation_hyperparams). Each round of
/// `rollout_episodes` episodes — collected in waves of up to the VecEnv
/// width, all under the same weights — feeds one optimize() pass; the
/// report counts rounds as updates. A run is therefore the same at every
/// width.
class PpoTrainer final : public Learner {
 public:
  PpoTrainer(PolicyNet& net, const AgentConfig& cfg, PpoConfig ppo = {});

 private:
  struct Step {
    Observation obs;
    std::size_t action = 0;
    double old_log_prob = 0.0;
    double ret = 0.0;        ///< Monte-Carlo return
    double old_value = 0.0;  ///< V(s) at collection time
  };

  int episodes_per_learn(std::size_t) const override {
    return ppo_.rollout_episodes;
  }
  std::size_t learn(std::vector<EpisodeRollout>& eps,
                    std::vector<UpdateStats>& stats) override;
  /// The shaped terminal reward.
  double reported_reward(const EpisodeRollout& e) const override;

  /// `epochs` passes over the round's steps, each shuffled from the
  /// shared stream and cut into minibatches. Every minibatch re-forwards
  /// through one forward_batched and stacks its loss terms into (m x 1)
  /// columns; its outcome goes through the divergence guard.
  void optimize(std::vector<Step>& steps);

  PpoConfig ppo_;
};

}  // namespace readys::rl
