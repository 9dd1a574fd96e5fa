#include "rl/train_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "rl/checkpoint.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace readys::rl {

double shape_reward(const AgentConfig& cfg, double reward) {
  if (!std::isfinite(reward)) {
    throw std::domain_error("shape_reward: non-finite reward " +
                            std::to_string(reward));
  }
  if (cfg.squash_reward && reward < 1.0) {
    reward = reward / (1.0 - reward);  // == mk_HEFT / mk - 1
  }
  if (cfg.reward_clip > 0.0) {
    reward = std::clamp(reward, -cfg.reward_clip, cfg.reward_clip);
  }
  return reward;
}

/// What the divergence guard and the entropy schedule need of the
/// running train() call.
struct Learner::Run {
  const TrainOptions& opts;
  TrainReport& report;
  std::string last_good;  ///< refreshed at every checkpoint boundary
  int patience = 1;
  int divergent_streak = 0;
};

namespace {

/// Where the training loop's episodes come from.
class RolloutSource {
 public:
  RolloutSource() = default;
  virtual ~RolloutSource() = default;
  RolloutSource(const RolloutSource&) = delete;
  RolloutSource& operator=(const RolloutSource&) = delete;
  /// Runs episodes [first, first + count) into `eps`, sorted by index.
  /// The loop reuses one buffer across calls.
  virtual void collect(int first, int count,
                       std::vector<EpisodeRollout>& eps) = 0;
};

/// Lockstep waves over the VecEnv: one batched no-grad forward per wave
/// step, actions drawn from the shared stream in ascending env order,
/// envs dropping out as their episodes finish.
class LockstepSource final : public RolloutSource {
 public:
  LockstepSource(VecEnv& envs, PolicyNet& net, util::Rng& rng,
                 std::uint64_t env_seed)
      : envs_(&envs), net_(&net), rng_(&rng), env_seed_(env_seed) {}

  void collect(int first, int count,
               std::vector<EpisodeRollout>& eps) override {
    eps.resize(static_cast<std::size_t>(count));
    const std::size_t width = envs_->size();
    for (std::size_t base = 0; base < eps.size(); base += width) {
      const std::size_t wave = std::min(width, eps.size() - base);
      std::vector<std::size_t> active;
      active.reserve(wave);
      for (std::size_t e = 0; e < wave; ++e) {
        const int index = first + static_cast<int>(base + e);
        envs_->reset_one(e, env_seed_ + static_cast<std::uint64_t>(index));
        // Freeing the slot's previous episode right as its env resets
        // keeps the heap pattern of a plain per-round loop; releasing the
        // whole round at once measurably slowed the updates that follow.
        eps[base + e] = EpisodeRollout{};
        eps[base + e].index = index;
        active.push_back(e);
      }
      tensor::NoGradGuard no_grad;
      while (!active.empty()) {
        const auto obs = envs_->observations(active);
        const auto outs = net_->forward_batched(obs);
        std::vector<std::size_t> acts(active.size());
        for (std::size_t k = 0; k < active.size(); ++k) {
          const std::size_t a =
              sample_categorical(outs[k].probs.value(), *rng_);
          acts[k] = a;
          EpisodeRollout& rec = eps[base + active[k]];
          rec.observations.push_back(*obs[k]);
          rec.actions.push_back(a);
          rec.log_probs.push_back(outs[k].log_probs.value()[a]);
          rec.values.push_back(outs[k].value.value().item());
        }
        const auto results = envs_->step(active, acts);
        std::vector<std::size_t> next;
        next.reserve(active.size());
        for (std::size_t k = 0; k < active.size(); ++k) {
          EpisodeRollout& rec = eps[base + active[k]];
          rec.rewards.push_back(results[k].reward);
          rec.reward_sum += results[k].reward;
          if (!results[k].done) next.push_back(active[k]);
        }
        active = std::move(next);
      }
      for (std::size_t e = 0; e < wave; ++e) {
        eps[base + e].makespan = envs_->env(e).makespan();
        eps[base + e].decisions = envs_->env(e).decisions_this_episode();
      }
    }
  }

 private:
  VecEnv* envs_;
  PolicyNet* net_;
  util::Rng* rng_;
  std::uint64_t env_seed_;
};

/// The async actor–learner source. collect() releases exactly the
/// episodes it returns, so every actor is parked while the learner
/// updates: the weights an episode acts under (synced into the slot's
/// replica at episode start) are those after the previous learn() call,
/// whichever thread runs it.
class ActorSource final : public RolloutSource {
 public:
  ActorSource(VecEnv& envs, const PolicyNet& net, std::shared_mutex& net_mutex,
              const AgentConfig& cfg, const TrainOptions& opts,
              std::uint64_t action_seed, int first_episode, int batch)
      : queue_(static_cast<std::size_t>(batch)),
        learner_params_(net.parameters()) {
    const std::size_t width = envs.size();
    ActorPool::Options pool_opts;
    pool_opts.first_episode = first_episode;
    pool_opts.episodes = opts.episodes;
    pool_opts.actors = std::min(
        opts.async_actors > 0 ? static_cast<std::size_t>(opts.async_actors)
                              : width,
        width);
    pool_opts.env_seed = opts.seed;
    pool_opts.action_seed = action_seed;
    for (std::size_t s = 0; s < pool_opts.actors; ++s) {
      replicas_.push_back(std::make_unique<PolicyNet>(
          net.node_features(), net.resource_features(), cfg));
      replica_params_.push_back(replicas_.back()->parameters());
    }
    pool_opts.on_episode_start = [this, &net_mutex](std::size_t slot, int) {
      // Shared lock: the copy must not observe a half-applied Adam step.
      std::shared_lock lock(net_mutex);
      auto& params = replica_params_[slot];
      for (std::size_t p = 0; p < params.size(); ++p) {
        params[p].mutable_value() = learner_params_[p].value();
      }
    };
    pool_ = std::make_unique<ActorPool>(
        envs, queue_,
        [this](std::size_t slot, const Observation& obs, util::Rng& rng) {
          // The replica is slot-private: no lock needed per decision.
          tensor::NoGradGuard no_grad;
          const PolicyNet::Output out = replicas_[slot]->forward(obs);
          ActorPool::Act act;
          act.action = sample_categorical(out.probs.value(), rng);
          act.log_prob = out.log_probs.value()[act.action];
          act.value = out.value.value().item();
          return act;
        },
        pool_opts);
  }

  void collect(int first, int count,
               std::vector<EpisodeRollout>& eps) override {
    pool_->release_below(first + count);
    eps.clear();
    EpisodeRollout rec;
    while (static_cast<int>(eps.size()) < count) {
      if (!queue_.pop(rec)) {
        pool_->join();
        if (auto err = queue_.error()) std::rethrow_exception(err);
        throw std::runtime_error(
            "train: async episode queue closed before the run finished");
      }
      eps.push_back(std::move(rec));
    }
    // Arrival order is thread timing; the learner sees index order.
    std::sort(eps.begin(), eps.end(),
              [](const EpisodeRollout& a, const EpisodeRollout& b) {
                return a.index < b.index;
              });
  }

 private:
  // Destruction runs bottom-up: the pool joins its actor threads before
  // the replicas and the queue they use die.
  EpisodeQueue queue_;
  std::vector<tensor::Var> learner_params_;
  std::vector<std::unique_ptr<PolicyNet>> replicas_;
  std::vector<std::vector<tensor::Var>> replica_params_;
  std::unique_ptr<ActorPool> pool_;
};

double tail_mean(const std::vector<double>& v, std::size_t tail) {
  return util::mean({v.data() + v.size() - tail, tail});
}

}  // namespace

Learner::Learner(PolicyNet& net, const AgentConfig& cfg, const char* name,
                 std::uint64_t stream_salt)
    : net_(&net),
      cfg_(cfg),
      optimizer_(net.parameters(), cfg.lr),
      stream_seed_(cfg.seed ^ stream_salt),
      rng_(stream_seed_),
      name_(name) {}

double Learner::shape_reward(double reward) const {
  return rl::shape_reward(cfg_, reward);
}

std::size_t Learner::select_action(const PolicyNet::Output& out, bool greedy,
                                   util::Rng& rng) const {
  const tensor::Tensor& p = out.probs.value();
  if (!greedy) return sample_categorical(p, rng);
  std::size_t best = 0;
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (p[i] > p[best]) best = i;
  }
  return best;
}

double Learner::entropy_scale(int index) const {
  if (!cfg_.entropy_decay) return 1.0;
  return 1.0 - static_cast<double>(index) /
                   static_cast<double>(std::max(1, run_->opts.episodes));
}

bool Learner::apply_loss(const tensor::Var& loss) {
  obs::Telemetry* t_obs = obs::telemetry();
  optimizer_.zero_grad();
  loss.backward();
  const double grad_norm = optimizer_.clip_grad_norm(cfg_.grad_clip);
  // A NaN/Inf loss or gradient stepped into Adam poisons the moments and
  // then every subsequent update; drop the batch instead. The norm is
  // non-finite iff any gradient entry is, so this one check covers the
  // whole parameter list.
  last_loss_ = loss.value().item();
  last_grad_norm_ = grad_norm;
  if (!std::isfinite(last_loss_) || !std::isfinite(grad_norm)) {
    optimizer_.zero_grad();
    if (t_obs) t_obs->optim_skipped.add();
    return false;
  }
  {
    std::unique_lock lock(net_mutex_);
    optimizer_.step();
    net_->bump_weight_version();
  }
  if (t_obs) t_obs->optim_updates.add();
  return true;
}

void Learner::guard(bool applied, int units) {
  Run& run = *run_;
  if (applied) {
    run.divergent_streak = 0;
    return;
  }
  ++run.report.skipped_updates;
  run.divergent_streak += std::max(1, units);
  if (run.divergent_streak >= run.patience) {
    std::unique_lock lock(net_mutex_);
    nn::deserialize_parameters(*net_, run.last_good);
    // Fresh optimizer: the moment estimates were built on the divergent
    // trajectory and would steer the restored weights right back into it.
    optimizer_ = nn::Adam(net_->parameters(), cfg_.lr);
    ++run.report.rollbacks;
    run.divergent_streak = 0;
  }
}

TrainReport Learner::train(VecEnv& envs, const TrainOptions& opts) {
  TrainReport report;
  report.best_makespan = std::numeric_limits<double>::infinity();
  const std::size_t width = envs.size();
  Run run{opts, report, {}, std::max(1, opts.divergence_patience)};
  run_ = &run;
  struct RunScope {
    Learner* self;
    ~RunScope() { self->run_ = nullptr; }
  } run_scope{this};

  int start = 0;
  if (opts.resume && !opts.checkpoint_dir.empty()) {
    CheckpointData ck;
    if (load_checkpoint(opts.checkpoint_dir, *net_, ck)) {
      apply_checkpoint_to_trainer(ck, name_, opts.seed, width, optimizer_,
                                  rng_);
      start = std::min(ck.progress.episode, opts.episodes);
      report.updates = ck.progress.updates;
      report.skipped_updates = ck.progress.skipped_updates;
      report.rollbacks = ck.progress.rollbacks;
      run.divergent_streak = ck.progress.divergent_streak;
      if (opts.verbose) {
        util::log_info() << "resumed from " << opts.checkpoint_dir
                         << " at episode " << ck.progress.episode;
      }
    }
  }
  report.start_episode = start;
  run.last_good = nn::serialize_parameters(*net_);

  const int every = std::max(1, opts.checkpoint_every);
  const int log_every = std::max(1, opts.log_every);
  const CheckpointOptions ck_opts{opts.checkpoint_retain};
  const auto checkpoint = [&](int episode) {
    if (opts.checkpoint_dir.empty()) return;
    CheckpointData d;
    d.progress = {episode, report.updates, report.skipped_updates,
                  report.rollbacks, run.divergent_streak};
    d.trainer = name_;
    d.env_seed = opts.seed;
    d.num_envs = width;
    d.rngs = {{"sample", rng_.state()}};
    d.optimizer = optimizer_.state_rows();
    save_checkpoint(opts.checkpoint_dir, *net_, d, ck_opts);
  };

  const int per_learn = std::max(1, episodes_per_learn(opts, width));
  std::unique_ptr<RolloutSource> source;
  if (opts.async) {
    source = std::make_unique<ActorSource>(envs, *net_, net_mutex_, cfg_,
                                           opts, stream_seed_, start,
                                           per_learn);
  } else {
    source = std::make_unique<LockstepSource>(envs, *net_, rng_, opts.seed);
  }

  using obs_clock = std::chrono::steady_clock;
  std::vector<EpisodeRollout> eps;
  std::vector<UpdateStats> stats;
  int ep = start;
  while (ep < opts.episodes) {
    const int count = std::min(per_learn, opts.episodes - ep);
    obs::Telemetry* t_obs = obs::telemetry();
    const auto t0 = t_obs ? obs_clock::now() : obs_clock::time_point{};
    source->collect(ep, count, eps);
    stats.assign(eps.size(), UpdateStats{});
    report.updates += learn(eps, stats);

    std::size_t decisions = 0;
    for (const EpisodeRollout& e : eps) {
      report.episode_rewards.push_back(reported_reward(e));
      report.episode_makespans.push_back(e.makespan);
      report.best_makespan = std::min(report.best_makespan, e.makespan);
      decisions += e.decisions;
    }
    if (t_obs != nullptr && t_obs->sink() != nullptr) {
      const double wall_s =
          std::chrono::duration<double>(obs_clock::now() - t0).count();
      const double rate =
          wall_s > 0.0 ? static_cast<double>(decisions) / wall_s : 0.0;
      for (std::size_t i = 0; i < eps.size(); ++i) {
        const EpisodeRollout& e = eps[i];
        obs::JsonObject row;
        row.field("row", "episode")
            .field("trainer", name_)
            .field("envs", static_cast<std::uint64_t>(width));
        if (opts.async) row.field("async", true);
        row.field("episode", e.index + 1)
            .field("reward", reported_reward(e))
            .field("makespan_ms", e.makespan)
            .field("loss", stats[i].loss)
            .field("grad_norm", stats[i].grad_norm)
            .field("decisions", static_cast<std::uint64_t>(e.decisions))
            .field("steps_per_s", rate)
            .field("skipped_updates",
                   static_cast<std::uint64_t>(report.skipped_updates))
            .field("rollbacks", static_cast<std::uint64_t>(report.rollbacks));
        t_obs->sink()->write(row.str());
      }
    }

    const int prev = ep;
    ep += count;
    if (ep / every != prev / every) {
      run.last_good = nn::serialize_parameters(*net_);
      checkpoint(ep);
    }
    if (opts.verbose && ep / log_every != prev / log_every) {
      const std::size_t tail = std::min<std::size_t>(
          report.episode_rewards.size(), static_cast<std::size_t>(log_every));
      util::log_info() << "episode " << ep << "/" << opts.episodes
                       << " reward(avg " << tail
                       << ")=" << tail_mean(report.episode_rewards, tail)
                       << " makespan=" << eps.back().makespan;
    }
  }
  checkpoint(opts.episodes);
  if (!report.episode_rewards.empty()) {
    // Empty when --resume found a run that already finished.
    report.final_mean_reward = tail_mean(
        report.episode_rewards,
        std::max<std::size_t>(1, report.episode_rewards.size() / 5));
  }
  return report;
}

std::vector<double> Learner::evaluate(SchedulingEnv& env, int episodes,
                                      std::uint64_t seed_base, bool greedy) {
  // Drawing from the shared training stream would make a sampled
  // evaluation depend on how many actions training consumed before it.
  util::Rng eval_rng(seed_base ^ 0xE7037ED1A0B428DBULL);
  tensor::NoGradGuard no_grad;
  std::vector<double> makespans;
  makespans.reserve(static_cast<std::size_t>(episodes));
  for (int ep = 0; ep < episodes; ++ep) {
    env.reset(seed_base + static_cast<std::uint64_t>(ep));
    bool done = env.done();
    while (!done) {
      const PolicyNet::Output out = net_->forward(env.observation());
      done = env.step(select_action(out, greedy, eval_rng)).done;
    }
    makespans.push_back(env.makespan());
  }
  return makespans;
}

}  // namespace readys::rl
