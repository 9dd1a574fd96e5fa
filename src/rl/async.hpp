#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "rl/env.hpp"
#include "rl/vec_env.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace readys::rl {

/// One completed episode, recorded as plain data (no autograd graph):
/// everything a learner needs to re-forward the trajectory and compute a
/// loss. Rewards are the raw environment rewards — the trainer applies
/// its shaping (squash/clip) at update time, exactly once, so the same
/// record serves both the synchronous lockstep rollout and the async
/// actor threads.
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

/// Samples an index from a 1xN probability row by cumulative scan (the
/// last index absorbs numerical slack). The one categorical sampler of
/// the trainers: lockstep rollouts draw from the shared stream, async
/// actors from per-episode streams, sampled evaluation from a per-call
/// stream.
std::size_t sample_categorical(const tensor::Tensor& probs, util::Rng& rng);

/// Bounded multi-producer single-consumer queue of finished episodes.
///
/// push() blocks while the queue is full (backpressure keeps actors at
/// most `capacity` episodes ahead of the learner) and returns false once
/// the queue is closed. pop() blocks while empty and returns false when
/// the queue is closed and drained, or immediately when a producer
/// failed — the consumer then rethrows error(). The first failure wins.
class EpisodeQueue {
 public:
  explicit EpisodeQueue(std::size_t capacity);

  EpisodeQueue(const EpisodeQueue&) = delete;
  EpisodeQueue& operator=(const EpisodeQueue&) = delete;

  bool push(EpisodeRollout rec);
  bool pop(EpisodeRollout& out);

  /// Wakes all waiters; further pushes fail, pops drain then fail.
  void close();

  /// Records a producer's exception (first one wins) and closes.
  void fail(std::exception_ptr error);

  std::exception_ptr error() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<EpisodeRollout> items_;
  std::size_t capacity_;
  bool closed_ = false;
  std::exception_ptr error_;
};

/// The actor half of the async actor–learner split (IMPALA-style, see
/// docs/api.md): `actors` threads each own one VecEnv slot, repeatedly
/// claim the next global episode index, run the whole episode with the
/// provided policy callback, and push the finished EpisodeRollout into
/// the queue.
///
/// Determinism contract: the env is fully reseeded from
/// env_seed + index and the action stream is derived from
/// (action_seed, index), so a trajectory is a pure function of (episode
/// index, policy weights snapshotted at episode start) — never of which
/// thread ran it. Claims are gated: nothing is claimable until the
/// learner calls release_below(), and the training loop releases only
/// the episodes it is about to learn from, so every actor is parked
/// while the weights change and weights-at-act-time are reproducible.
class ActorPool {
 public:
  /// What the policy callback returns for one decision.
  struct Act {
    std::size_t action = 0;
    double log_prob = 0.0;  ///< log pi(action | obs)
    double value = 0.0;     ///< V(obs)
  };
  /// Called once per decision; must be thread-safe across slots (the
  /// trainers forward through a per-slot policy replica under a
  /// tensor::NoGradGuard, so slots never share mutable state).
  using Policy =
      std::function<Act(std::size_t slot, const Observation&, util::Rng&)>;

  struct Options {
    int first_episode = 0;  ///< first index to run (resume offset)
    int episodes = 0;       ///< exclusive end index
    std::size_t actors = 1;
    std::uint64_t env_seed = 0;     ///< episode i reseeds env_seed + i
    std::uint64_t action_seed = 0;  ///< per-episode stream base
    /// Called right after a claim, before the episode runs — the
    /// trainers snapshot the learner weights into the slot's replica
    /// here, so one trajectory acts under one consistent policy (a
    /// trajectory whose decisions straddle weight updates demonstrably
    /// collapses A2C learning; see BENCH_train_quality.json).
    std::function<void(std::size_t slot, int episode)> on_episode_start;
  };

  /// Starts the actor threads immediately. `actors` is clamped to
  /// envs.size() — each actor owns envs.env(slot) exclusively.
  ActorPool(VecEnv& envs, EpisodeQueue& queue, Policy policy,
            const Options& opts);

  /// Stops claiming, closes the queue, and joins the threads.
  ~ActorPool();

  ActorPool(const ActorPool&) = delete;
  ActorPool& operator=(const ActorPool&) = delete;

  /// Allows claims of indices < bound. No-op when the bound does not
  /// advance.
  void release_below(int bound);

  /// Waits for the actors to finish naturally (all indices claimed and
  /// pushed, or the queue closed/failed).
  void join();

 private:
  /// Next episode index for this actor, or -1 to shut down.
  int claim();
  void actor_loop(std::size_t slot);
  void stop();

  VecEnv* envs_;
  EpisodeQueue* queue_;
  Policy policy_;
  Options opts_;

  std::mutex mutex_;
  std::condition_variable cv_;
  int next_;      ///< next unclaimed episode index
  int released_;  ///< indices < released_ may be claimed
  bool stop_ = false;
  bool joined_ = false;

  util::ThreadPool pool_;
  std::vector<std::future<void>> futures_;
};

}  // namespace readys::rl
