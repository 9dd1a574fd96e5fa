#pragma once

#include <cstdint>
#include <string>

namespace readys::rl {

/// Hyper-parameters of the READYS agent and its A2C trainer. Defaults
/// follow §V-D of the paper (Adam, gamma = 0.99, baseline-loss scaling
/// 0.5, unroll length and entropy ratio from the grid the paper searched,
/// window w and GCN depth g from its random-search ranges).
struct AgentConfig {
  // --- observation ---
  int window = 1;  ///< the paper's w: descendants kept up to this depth

  // --- network (Fig. 2) ---
  int gcn_layers = 2;  ///< the paper's g; >= 1. Uses >= w to let ready
                       ///< tasks see the whole window.
  int hidden = 64;     ///< GCN/actor/critic embedding width

  // --- A2C ---
  double lr = 1e-2;           ///< Adam learning rate (paper's value)
  double gamma = 0.99;        ///< discount
  double entropy_beta = 5e-3; ///< entropy regularization ratio
  /// Linearly anneal the entropy ratio to 0 over the training run:
  /// exploration early, sharp exploitation late. Set false for the
  /// paper's constant ratio.
  bool entropy_decay = true;
  double value_coef = 0.5;    ///< baseline (critic) loss scaling
  /// Decisions per gradient update. 0 (default) updates once per episode
  /// with true Monte-Carlo returns. A positive value splits each finished
  /// episode into segments of at most `unroll` decisions, one update
  /// each, bootstrapped from V of the next segment's first state under
  /// the current weights. With the paper's terminal-only reward a
  /// mid-episode segment carries no environment signal — its targets are
  /// pure critic bootstrap — so n-step unrolls (the paper's 20..80 grid)
  /// destabilize training here; they remain available for experimenting
  /// with denser rewards.
  int unroll = 0;
  double grad_clip = 1.0;     ///< global-norm gradient clipping
  /// Standardize advantages per batch. Off by default: with the paper's
  /// terminal-only reward every return in a batch is a power of gamma
  /// times the same episode reward, so standardization erases the reward
  /// sign and substitutes a spurious time gradient. Useful only with
  /// denser reward shapes.
  bool normalize_advantage = false;
  /// Squash the paper's terminal reward r = (mk_HEFT - mk)/mk_HEFT
  /// through r' = r / (1 - r) = mk_HEFT/mk - 1. The transform is strictly
  /// monotone (same optimal policy) but bounded below by -1, so the
  /// makespans several HEFT multiples long that early random policies
  /// produce cannot blow up the critic loss and drown the actor gradient
  /// through the shared GCN trunk, while — unlike hard clipping — bad
  /// episodes remain mutually distinguishable.
  bool squash_reward = true;
  /// Clip the (possibly squashed) terminal reward to [-clip, +clip];
  /// 0 turns clipping off.
  double reward_clip = 1.0;

  /// Feed the resource-state embedding into the critic alongside the
  /// mean-pooled DAG embedding (an experiment beyond Fig. 2, which
  /// projects the mean-pool alone). Off by default: in our runs the
  /// enriched critic destabilized larger instances (T=8 collapsed into
  /// the one-GPU local optimum) while the literal Fig.-2 critic reached
  /// near-HEFT quality.
  bool critic_sees_resources = false;

  std::uint64_t seed = 1;  ///< weight init + action sampling stream
};

/// Parameters of one training run.
struct TrainOptions {
  int episodes = 200;
  double sigma = 0.0;        ///< task-duration noise during training
  std::uint64_t seed = 1;    ///< environment (noise + processor draw) seed
  bool verbose = false;      ///< log a line every `log_every` episodes
  int log_every = 50;

  // --- resilience (see docs/architecture.md, "Fault tolerance") ---
  /// Directory for periodic checkpoints (weights + progress, written
  /// atomically). Empty disables checkpointing. The same directory is
  /// what `resume` restores from.
  std::string checkpoint_dir;
  /// Episodes between checkpoints (also the final state is always
  /// checkpointed when a directory is set).
  int checkpoint_every = 50;
  /// Newest checkpoint files kept in checkpoint_dir; older ones are
  /// pruned after each save. Keeping more than one is what lets resume
  /// fall back when the newest file is corrupt (torn write, bad disk).
  int checkpoint_retain = 3;
  /// Restore weights + episode counter from checkpoint_dir before
  /// training; a missing checkpoint silently starts from scratch, so a
  /// resumable run can use the same invocation for first start and
  /// restart.
  bool resume = false;
  /// After this many consecutive divergent (NaN/Inf loss or gradient)
  /// updates, roll the weights back to the last good snapshot (refreshed
  /// at every checkpoint boundary) and reset the optimizer. Divergent
  /// updates are always skipped, never applied. Like `checkpoint_every`
  /// it means the same thing at any num_envs: A2C updates once per
  /// episode at every width.
  int divergence_patience = 3;

  // --- async actor–learner ---
  /// Decouple acting from learning: actor threads run whole episodes on
  /// their own env slot (reseeded per episode from `seed` + episode
  /// index) under a policy replica synced at episode start, and the
  /// learner takes `async_batch` finished episodes at a time. Actors only
  /// run the episodes the learner has released, so they are parked while
  /// the weights change and a run is bit-reproducible for any actor count.
  bool async = false;
  /// Actor thread count; 0 means one per env. Clamped to num_envs (each
  /// actor owns one VecEnv slot exclusively).
  int async_actors = 0;
  /// Episodes the learner takes per pass (A2C still updates once per
  /// episode; PPO always takes its rollout_episodes).
  int async_batch = 1;
};

}  // namespace readys::rl
