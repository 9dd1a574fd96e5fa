#pragma once

#include <vector>

#include "rl/train_loop.hpp"

namespace readys::rl {

/// Synchronous advantage actor-critic (A2C) on the scheduling MDP.
///
/// Follows §IV-A of the paper: advantage = (return − V(s)), entropy
/// regularization, critic loss scaled by value_coef, a single Adam
/// optimizer over actor and critic (they share the GCN trunk). One
/// update per episode in episode order at any VecEnv width (or per
/// `unroll`-step segment of it), so the entropy schedule, divergence
/// patience and checkpoint cadence mean the same thing at any width.
/// In async mode (TrainOptions::async) the training loop hands over
/// `async_batch` episodes at a time; the updates stay per episode.
class A2CTrainer final : public Learner {
 public:
  A2CTrainer(PolicyNet& net, const AgentConfig& cfg);

 private:
  struct StepRecord {
    tensor::Var log_prob;  // 1x1, grad flows to the net
    tensor::Var value;     // 1x1
    tensor::Var entropy;   // 1x1
    double reward = 0.0;
    bool done = false;
  };

  int episodes_per_learn(const TrainOptions& opts,
                         std::size_t width) const override;
  std::size_t learn(std::vector<EpisodeRollout>& eps,
                    std::vector<UpdateStats>& stats) override;
  double reported_reward(const EpisodeRollout& e) const override {
    return e.reward_sum;
  }

  /// Re-forwards steps [begin, end) of `e` with gradients on (one
  /// forward_batched over the segment) and applies one update over
  /// them. Rewards are shaped here. `bootstrap` is V of the step after
  /// the segment (0 when the segment ends the episode).
  bool update_segment(const EpisodeRollout& e, std::size_t begin,
                      std::size_t end, double bootstrap,
                      double entropy_scale);

  /// One gradient step from a batch of transitions, with the per-step
  /// loss terms stacked into (batch x 1) columns (concat_rows) so the
  /// loss graph is O(1) nodes instead of O(batch). Returns false when
  /// the update was skipped because the loss or gradients were
  /// non-finite (the weights are left untouched).
  bool update_batched(const std::vector<StepRecord>& batch, double bootstrap,
                      double entropy_scale);
};

}  // namespace readys::rl
