#include "rl/async.hpp"

#include <algorithm>
#include <utility>

namespace readys::rl {

std::size_t sample_categorical(const tensor::Tensor& probs, util::Rng& rng) {
  const double u = rng.uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    if (u < acc) return i;
  }
  return probs.size() - 1;  // numerical slack
}

EpisodeQueue::EpisodeQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

bool EpisodeQueue::push(EpisodeRollout rec) {
  std::unique_lock lock(mutex_);
  not_full_.wait(lock,
                 [&] { return closed_ || items_.size() < capacity_; });
  if (closed_) return false;
  items_.push_back(std::move(rec));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool EpisodeQueue::pop(EpisodeRollout& out) {
  std::unique_lock lock(mutex_);
  not_empty_.wait(lock,
                  [&] { return closed_ || error_ || !items_.empty(); });
  if (error_ || items_.empty()) return false;
  out = std::move(items_.front());
  items_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return true;
}

void EpisodeQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

void EpisodeQueue::fail(std::exception_ptr error) {
  {
    std::lock_guard lock(mutex_);
    if (!error_) error_ = std::move(error);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::exception_ptr EpisodeQueue::error() const {
  std::lock_guard lock(mutex_);
  return error_;
}

namespace {

/// Decorrelates the per-episode action stream from the base seed: the
/// 64-bit golden-ratio increment (splitmix64's gamma) keeps adjacent
/// episode indices far apart in seed space.
std::uint64_t episode_seed(std::uint64_t base, int index) {
  return base ^ (0x9E3779B97F4A7C15ULL *
                 (static_cast<std::uint64_t>(index) + 1));
}

}  // namespace

ActorPool::ActorPool(VecEnv& envs, EpisodeQueue& queue, Policy policy,
                     const Options& opts)
    : envs_(&envs),
      queue_(&queue),
      policy_(std::move(policy)),
      opts_(opts),
      next_(opts.first_episode),
      released_(opts.first_episode),
      pool_(std::max<std::size_t>(
          1, std::min(opts.actors ? opts.actors : envs.size(),
                      envs.size()))) {
  opts_.actors = pool_.size();
  futures_.reserve(opts_.actors);
  for (std::size_t slot = 0; slot < opts_.actors; ++slot) {
    futures_.push_back(pool_.submit([this, slot] { actor_loop(slot); }));
  }
}

ActorPool::~ActorPool() {
  stop();
  join();
}

void ActorPool::release_below(int bound) {
  {
    std::lock_guard lock(mutex_);
    if (bound <= released_) return;
    released_ = bound;
  }
  cv_.notify_all();
}

void ActorPool::join() {
  if (joined_) return;
  joined_ = true;
  // actor_loop catches everything into queue_->fail, so get() only
  // surfaces harness bugs (e.g. a broken promise).
  for (auto& f : futures_) f.get();
}

void ActorPool::stop() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  queue_->close();  // unblocks actors parked in push()
}

int ActorPool::claim() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] {
    return stop_ || next_ >= opts_.episodes || next_ < released_;
  });
  if (stop_ || next_ >= opts_.episodes) return -1;
  return next_++;
}

void ActorPool::actor_loop(std::size_t slot) {
  try {
    SchedulingEnv& env = envs_->env(slot);
    for (;;) {
      const int index = claim();
      if (index < 0) return;
      if (opts_.on_episode_start) opts_.on_episode_start(slot, index);
      EpisodeRollout rec;
      rec.index = index;
      util::Rng rng(episode_seed(opts_.action_seed, index));
      env.reset(opts_.env_seed + static_cast<std::uint64_t>(index));
      bool done = env.done();
      while (!done) {
        const Observation& obs = env.observation();
        const Act act = policy_(slot, obs, rng);
        rec.observations.push_back(obs);  // deep copy: step() mutates env
        rec.actions.push_back(act.action);
        rec.log_probs.push_back(act.log_prob);
        rec.values.push_back(act.value);
        const auto result = env.step(act.action);
        rec.rewards.push_back(result.reward);
        rec.reward_sum += result.reward;
        done = result.done;
      }
      rec.makespan = env.makespan();
      rec.decisions = env.decisions_this_episode();
      if (!queue_->push(std::move(rec))) return;  // closed: shutting down
    }
  } catch (...) {
    queue_->fail(std::current_exception());
  }
}

}  // namespace readys::rl
