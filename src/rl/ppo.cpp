#include "rl/ppo.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "tensor/ops.hpp"

namespace readys::rl {

PpoTrainer::PpoTrainer(PolicyNet& net, const AgentConfig& cfg, PpoConfig ppo)
    : Learner(net, cfg, "ppo", 0xC2B2AE3D27D4EB4FULL), ppo_(ppo) {}

double PpoTrainer::reported_reward(const EpisodeRollout& e) const {
  return e.rewards.empty() ? 0.0 : shape_reward(e.rewards.back());
}

std::size_t PpoTrainer::learn(std::vector<EpisodeRollout>& eps,
                              std::vector<UpdateStats>&) {
  std::vector<Step> steps;
  for (EpisodeRollout& e : eps) {
    const std::size_t n = e.observations.size();
    const std::size_t first = steps.size();
    for (std::size_t i = 0; i < n; ++i) {
      Step s;
      s.obs = std::move(e.observations[i]);
      s.action = e.actions[i];
      s.old_log_prob = e.log_probs[i];
      s.old_value = e.values[i];
      steps.push_back(std::move(s));
    }
    // Monte-Carlo returns: terminal-only reward discounted backwards.
    const double reward = reported_reward(e);
    double running = 0.0;
    for (std::size_t i = n; i-- > 0;) {
      running = (i + 1 == n) ? reward : cfg_.gamma * running;
      steps[first + i].ret = running;
    }
  }
  optimize(steps);
  // The round's minibatch updates each mix shuffled steps of every
  // episode, so no one update covers an episode: its stats stay null.
  return 1;
}

void PpoTrainer::optimize(std::vector<Step>& steps) {
  readys::obs::Telemetry* t_obs = readys::obs::telemetry();
  readys::obs::Span round_span("rl/ppo_optimize", "train",
                               t_obs ? &t_obs->update_us : nullptr);
  for (int epoch = 0; epoch < ppo_.epochs; ++epoch) {
    rng_.shuffle(steps);
    for (std::size_t begin = 0; begin < steps.size();
         begin += static_cast<std::size_t>(ppo_.minibatch)) {
      const std::size_t end = std::min(
          steps.size(), begin + static_cast<std::size_t>(ppo_.minibatch));
      const std::size_t m = end - begin;
      std::vector<const Observation*> mb;
      mb.reserve(m);
      for (std::size_t i = begin; i < end; ++i) mb.push_back(&steps[i].obs);
      const auto outs = net_->forward_batched(mb);
      std::vector<tensor::Var> lps, vals, ents;
      lps.reserve(m);
      vals.reserve(m);
      ents.reserve(m);
      tensor::Tensor old_lp(m, 1);
      tensor::Tensor rets(m, 1);
      for (std::size_t i = 0; i < m; ++i) {
        const Step& s = steps[begin + i];
        // The action set is state-determined, so the index stays valid.
        lps.push_back(tensor::pick(outs[i].log_probs, 0, s.action));
        vals.push_back(outs[i].value);
        ents.push_back(tensor::entropy_row(outs[i].probs));
        old_lp.at(i, 0) = s.old_log_prob;
        rets.at(i, 0) = s.ret;
      }
      const tensor::Var ratio = tensor::exp_op(tensor::sub(
          tensor::concat_rows(lps), tensor::Var(std::move(old_lp))));
      // Clipped surrogate, branch picked analytically per step on the
      // ratio value: the clipped branch carries no gradient, so it folds
      // into a constant offset.
      tensor::Tensor coef(m, 1);
      double clipped_sum = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const Step& s = steps[begin + i];
        const double advantage = s.ret - s.old_value;
        const double r = ratio.value().at(i, 0);
        const bool clipped = (advantage >= 0.0 && r > 1.0 + ppo_.clip) ||
                             (advantage < 0.0 && r < 1.0 - ppo_.clip);
        if (clipped) {
          clipped_sum +=
              std::clamp(r, 1.0 - ppo_.clip, 1.0 + ppo_.clip) * advantage;
        } else {
          coef.at(i, 0) = advantage;
        }
      }
      const tensor::Var surrogate = tensor::add_scalar(
          tensor::sum_all(tensor::mul(ratio, tensor::Var(std::move(coef)))),
          clipped_sum);
      const tensor::Var critic = tensor::scale(
          tensor::sum_all(tensor::square(tensor::sub(
              tensor::concat_rows(vals), tensor::Var(std::move(rets))))),
          cfg_.value_coef);
      const tensor::Var entropy = tensor::scale(
          tensor::sum_all(tensor::concat_rows(ents)), cfg_.entropy_beta);
      const tensor::Var loss = tensor::scale(
          tensor::add(tensor::neg(surrogate), tensor::sub(critic, entropy)),
          1.0 / static_cast<double>(m));
      guard(apply_loss(loss), 1);
    }
  }
}

}  // namespace readys::rl
