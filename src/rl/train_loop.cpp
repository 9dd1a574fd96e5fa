#include "rl/train_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "rl/checkpoint.hpp"
#include "rl/inference.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace readys::rl {

std::size_t sample_categorical(const tensor::Tensor& probs, util::Rng& rng) {
  return choose_action({probs.data(), probs.size()}, &rng);
}

std::uint64_t episode_seed(std::uint64_t base, int index) {
  return base ^ (0x9E3779B97F4A7C15ULL *
                 (static_cast<std::uint64_t>(index) + 1));
}

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

/// Lockstep waves over the VecEnv: one batched no-grad forward per wave
/// step, envs dropping out as their episodes finish. Episode i draws its
/// actions from its own stream, seeded episode_seed(stream_seed, i), so
/// a trajectory depends on the episode index and the weights it acts
/// under, never on the width or on the episodes stepped beside it.
class LockstepSource {
 public:
  LockstepSource(VecEnv& envs, PolicyNet& net, std::uint64_t env_seed,
                 std::uint64_t stream_seed)
      : envs_(&envs),
        net_(&net),
        env_seed_(env_seed),
        stream_seed_(stream_seed),
        rngs_(envs.size()) {}

  /// Runs episodes [first, first + count) into `eps`, sorted by index.
  /// The loop reuses one buffer across calls.
  void collect(int first, int count, std::vector<EpisodeRollout>& eps) {
    eps.resize(static_cast<std::size_t>(count));
    const std::size_t width = envs_->size();
    for (std::size_t base = 0; base < eps.size(); base += width) {
      const std::size_t wave = std::min(width, eps.size() - base);
      std::vector<std::size_t> active;
      active.reserve(wave);
      for (std::size_t e = 0; e < wave; ++e) {
        const int index = first + static_cast<int>(base + e);
        envs_->reset_one(e, env_seed_ + static_cast<std::uint64_t>(index));
        rngs_[e] = util::Rng(episode_seed(stream_seed_, index));
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
          const tensor::Tensor& p = outs[k].probs.value();
          const std::size_t a =
              choose_action({p.data(), p.size()}, &rngs_[active[k]]);
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
  std::uint64_t env_seed_;
  std::uint64_t stream_seed_;
  std::vector<util::Rng> rngs_;  ///< one action stream per env slot
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
  optimizer_.step();
  net_->bump_weight_version();
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

  const int per_learn = std::max(1, episodes_per_learn(width));
  int start = 0;
  if (opts.resume && !opts.checkpoint_dir.empty()) {
    CheckpointData ck;
    if (load_checkpoint(opts.checkpoint_dir, *net_, ck)) {
      apply_checkpoint_to_trainer(ck, name_, opts.seed, optimizer_, rng_,
                                  stream_seed_);
      // Trajectories depend on the width only through the episodes each
      // learn() call takes, so another width resumes exactly unless that
      // count changes.
      if (std::max(1, episodes_per_learn(ck.num_envs)) != per_learn) {
        util::log_warn() << "resume: checkpoint was written with num_envs="
                         << ck.num_envs << ", this run uses num_envs="
                         << width << "; the episodes acting under one set "
                         << "of weights (and thus the trajectories) will "
                         << "differ";
      }
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
    d.stream_seed = stream_seed_;
    d.rngs = {{"sample", rng_.state()}};
    d.optimizer = optimizer_.state_rows();
    save_checkpoint(opts.checkpoint_dir, *net_, d, ck_opts);
  };

  LockstepSource source(envs, *net_, opts.seed, stream_seed_);

  using obs_clock = std::chrono::steady_clock;
  std::vector<EpisodeRollout> eps;
  std::vector<UpdateStats> stats;
  int ep = start;
  while (ep < opts.episodes) {
    const int count = std::min(per_learn, opts.episodes - ep);
    obs::Telemetry* t_obs = obs::telemetry();
    const auto t0 = t_obs ? obs_clock::now() : obs_clock::time_point{};
    source.collect(ep, count, eps);
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
            .field("envs", static_cast<std::uint64_t>(width))
            .field("episode", e.index + 1)
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

}  // namespace readys::rl
