#include "rl/a2c.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "tensor/ops.hpp"
#include "util/stats.hpp"

namespace readys::rl {

A2CTrainer::A2CTrainer(PolicyNet& net, const AgentConfig& cfg)
    : Learner(net, cfg, "a2c", 0xA3EC647659359ACDULL) {}

int A2CTrainer::episodes_per_learn(const TrainOptions& opts,
                                   std::size_t width) const {
  return opts.async ? opts.async_batch : static_cast<int>(width);
}

std::size_t A2CTrainer::learn(std::vector<EpisodeRollout>& eps,
                              std::vector<UpdateStats>& stats) {
  std::size_t applied = 0;
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const EpisodeRollout& e = eps[i];
    const double scale = entropy_scale(e.index);
    const std::size_t n = e.observations.size();
    const std::size_t segment =
        cfg_.unroll > 0 ? static_cast<std::size_t>(cfg_.unroll) : n;
    for (std::size_t begin = 0; begin < n; begin += segment) {
      const std::size_t end = std::min(n, begin + segment);
      double bootstrap = 0.0;
      if (end < n) {
        // V of the next segment's first state under the current weights.
        tensor::NoGradGuard no_grad;
        bootstrap = net_->forward(e.observations[end]).value.value().item();
      }
      const bool ok = update_segment(e, begin, end, bootstrap, scale);
      guard(ok, 1);
      if (ok) ++applied;
    }
    stats[i] = {last_loss_, last_grad_norm_};
  }
  return applied;
}

bool A2CTrainer::update_segment(const EpisodeRollout& e, std::size_t begin,
                                std::size_t end, double bootstrap,
                                double entropy_scale) {
  std::vector<const Observation*> obs;
  obs.reserve(end - begin);
  for (std::size_t s = begin; s < end; ++s) obs.push_back(&e.observations[s]);
  // Re-forward with gradients on: the rollout recorded values only, so
  // each update's graph covers exactly its own steps.
  const auto outs = net_->forward_batched(obs);
  std::vector<StepRecord> batch;
  batch.reserve(end - begin);
  for (std::size_t s = begin; s < end; ++s) {
    const PolicyNet::Output& out = outs[s - begin];
    StepRecord rec;
    rec.log_prob = tensor::pick(out.log_probs, 0, e.actions[s]);
    rec.value = out.value;
    rec.entropy = tensor::entropy_row(out.probs);
    rec.reward = shape_reward(e.rewards[s]);
    rec.done = (s + 1 == e.observations.size());
    batch.push_back(std::move(rec));
  }
  return update_batched(batch, bootstrap, entropy_scale);
}

bool A2CTrainer::update_batched(const std::vector<StepRecord>& batch,
                                double bootstrap, double entropy_scale) {
  if (batch.empty()) return true;
  readys::obs::Telemetry* t_obs = readys::obs::telemetry();
  readys::obs::Span span("rl/a2c_update", "train",
                         t_obs ? &t_obs->update_us : nullptr);
  // Discounted returns, resetting at the episode end.
  const std::size_t n = batch.size();
  std::vector<double> returns(n);
  double running = bootstrap;
  for (std::size_t i = n; i-- > 0;) {
    running = batch[i].done ? batch[i].reward
                            : batch[i].reward + cfg_.gamma * running;
    returns[i] = running;
  }
  // Raw advantages; optionally standardized across the batch, which keeps
  // the policy-gradient magnitude stable when terminal rewards swing
  // (early random policies can be several HEFT makespans away).
  std::vector<double> advantages(n);
  for (std::size_t i = 0; i < n; ++i) {
    advantages[i] = returns[i] - batch[i].value.value().item();
  }
  if (cfg_.normalize_advantage && n > 1) {
    const auto s = util::summarize(advantages);
    const double scale = s.stddev > 1e-8 ? s.stddev : 1.0;
    for (double& a : advantages) a = (a - s.mean) / scale;
  }

  // Stack the per-step scalars into (n x 1) columns; the loss becomes a
  // handful of column ops instead of ~8 graph nodes per step.
  std::vector<tensor::Var> lps, vals, ents;
  lps.reserve(n);
  vals.reserve(n);
  ents.reserve(n);
  tensor::Tensor neg_adv(n, 1);
  tensor::Tensor rets(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    lps.push_back(batch[i].log_prob);
    vals.push_back(batch[i].value);
    ents.push_back(batch[i].entropy);
    neg_adv.at(i, 0) = -advantages[i];
    rets.at(i, 0) = returns[i];
  }
  const tensor::Var pg = tensor::sum_all(
      tensor::mul(tensor::concat_rows(lps), tensor::Var(std::move(neg_adv))));
  const tensor::Var critic = tensor::scale(
      tensor::sum_all(tensor::square(tensor::sub(
          tensor::concat_rows(vals), tensor::Var(std::move(rets))))),
      cfg_.value_coef);
  const tensor::Var entropy =
      tensor::scale(tensor::sum_all(tensor::concat_rows(ents)),
                    cfg_.entropy_beta * entropy_scale);
  const tensor::Var loss =
      tensor::scale(tensor::add(pg, tensor::sub(critic, entropy)),
                    1.0 / static_cast<double>(n));
  return apply_loss(loss);
}

}  // namespace readys::rl
