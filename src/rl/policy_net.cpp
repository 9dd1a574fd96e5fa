#include "rl/policy_net.hpp"

#include <stdexcept>
#include <string>

#include "obs/telemetry.hpp"
#include "rl/inference.hpp"
#include "tensor/ops.hpp"

namespace readys::rl {

PolicyNet::PolicyNet(int node_features, int resource_features,
                     const AgentConfig& cfg)
    : node_features_(node_features),
      resource_features_(resource_features),
      hidden_(cfg.hidden) {
  if (cfg.gcn_layers < 1) {
    throw std::invalid_argument("PolicyNet: need >= 1 GCN layer");
  }
  util::Rng rng(cfg.seed);
  const std::size_t h = static_cast<std::size_t>(hidden_);
  for (int l = 0; l < cfg.gcn_layers; ++l) {
    const std::size_t in =
        l == 0 ? static_cast<std::size_t>(node_features) : h;
    gcn_.push_back(std::make_unique<nn::GCNLayer>(in, h, rng));
    register_module("gcn" + std::to_string(l), *gcn_.back());
  }
  actor_head_ = std::make_unique<nn::Linear>(h, 1, rng);
  register_module("actor", *actor_head_);
  res_proj_ = std::make_unique<nn::Linear>(
      static_cast<std::size_t>(resource_features), h, rng);
  register_module("res_proj", *res_proj_);
  idle_head_ = std::make_unique<nn::Linear>(2 * h, 1, rng);
  register_module("idle", *idle_head_);
  critic_sees_resources_ = cfg.critic_sees_resources;
  value_head_ = std::make_unique<nn::Linear>(
      critic_sees_resources_ ? 2 * h : h, 1, rng);
  register_module("value", *value_head_);
}

std::unique_ptr<InferenceBackend> PolicyNet::make_inference(
    InferenceBackendKind kind) const {
  return make_inference_backend(*this, kind);
}

namespace {

void require_ahat(const Observation& obs, const char* who) {
  if (obs.ahat_csr.rows() != obs.features.rows()) {
    throw std::invalid_argument(
        std::string(who) + ": ahat_csr missing or sized for another window");
  }
}

}  // namespace

Var PolicyNet::embed(const tensor::SparseAdj& ahat, Var h) const {
  readys::obs::Span span("nn/gcn_embed", "train");
  for (std::size_t l = 0; l < gcn_.size(); ++l) {
    h = gcn_[l]->forward(ahat, h);
    if (l + 1 < gcn_.size()) h = tensor::relu(h);
  }
  return h;
}

PolicyNet::Output PolicyNet::forward(const Observation& obs) const {
  readys::obs::Telemetry* t = readys::obs::telemetry();
  readys::obs::Span span("rl/policy_forward", "train",
                         t ? &t->policy_forward_us : nullptr);
  if (t) t->policy_forwards.add();
  if (obs.ready_tasks.empty()) {
    throw std::invalid_argument("PolicyNet::forward: no ready task");
  }
  require_ahat(obs, "PolicyNet::forward");
  const Var h = embed(obs.ahat_csr, Var{obs.features});
  const Var rstate =
      tensor::relu(res_proj_->forward(Var{obs.resource_state}));

  // Critic: mean-pool over nodes (+ the resource embedding unless the
  // literal Fig. 2 head was requested), one-dimensional projection.
  Output out;
  const Var pooled = tensor::mean_rows(h);
  out.value = value_head_->forward(
      critic_sees_resources_ ? tensor::concat_cols(pooled, rstate) : pooled);

  // Actor: a score per ready task...
  const Var ready_emb = tensor::gather_rows(h, obs.ready_positions);
  Var logits = tensor::reshape(actor_head_->forward(ready_emb), 1,
                               obs.ready_tasks.size());
  // ...plus the ∅ score from the processor state and the max-pooled DAG
  // embedding, when idling is legal.
  if (obs.allow_idle) {
    const Var idle_score = idle_head_->forward(
        tensor::concat_cols(rstate, tensor::max_rows(h)));
    logits = tensor::concat_cols(logits, idle_score);
  }
  out.probs = tensor::softmax_row(logits);
  out.log_probs = tensor::log_softmax_row(logits);
  return out;
}

std::vector<PolicyNet::Output> PolicyNet::forward_batched(
    const std::vector<const Observation*>& batch) const {
  if (batch.empty()) {
    throw std::invalid_argument("PolicyNet::forward_batched: empty batch");
  }
  if (batch.size() == 1) {
    // Delegating gives a batch of one the per-observation graph: same
    // shape, same backward accumulation order.
    return {forward(*batch.front())};
  }
  readys::obs::Telemetry* t = readys::obs::telemetry();
  readys::obs::Span span("rl/policy_forward_batched", "train",
                         t ? &t->policy_forward_us : nullptr);
  if (t) t->policy_forwards.add(batch.size());

  const std::size_t n_envs = batch.size();
  std::vector<std::size_t> offsets(n_envs + 1, 0);
  std::size_t n_ready = 0;
  for (std::size_t g = 0; g < n_envs; ++g) {
    const Observation& o = *batch[g];
    if (o.ready_tasks.empty()) {
      throw std::invalid_argument(
          "PolicyNet::forward_batched: no ready task");
    }
    if (o.features.cols() != static_cast<std::size_t>(node_features_)) {
      throw std::invalid_argument(
          "PolicyNet::forward_batched: feature width mismatch");
    }
    require_ahat(o, "PolicyNet::forward_batched");
    offsets[g + 1] = offsets[g] + o.features.rows();
    n_ready += o.ready_tasks.size();
  }

  // Pack node features and resource rows, and the adjacencies into one
  // block-diagonal CSR.
  tensor::Tensor feats(offsets.back(),
                       static_cast<std::size_t>(node_features_));
  tensor::Tensor res(n_envs, batch.front()->resource_state.cols());
  tensor::SparseAdj ahat;
  for (std::size_t g = 0; g < n_envs; ++g) {
    const Observation& o = *batch[g];
    for (std::size_t r = 0; r < o.features.rows(); ++r) {
      for (std::size_t c = 0; c < o.features.cols(); ++c) {
        feats.at(offsets[g] + r, c) = o.features.at(r, c);
      }
    }
    for (std::size_t c = 0; c < o.resource_state.cols(); ++c) {
      res.at(g, c) = o.resource_state.at(0, c);
    }
    ahat.append_block(o.ahat_csr);
  }

  Var h = embed(ahat, Var{std::move(feats)});
  const Var rstate = tensor::relu(res_proj_->forward(Var{std::move(res)}));

  // Critic over per-graph mean pools, one packed head projection.
  const Var pooled = tensor::segment_mean_rows(h, offsets);
  const Var values = value_head_->forward(
      critic_sees_resources_ ? tensor::concat_cols(pooled, rstate) : pooled);

  // Actor scores for every ready row of every graph in one gather.
  std::vector<std::size_t> ready_rows;
  ready_rows.reserve(n_ready);
  std::vector<std::size_t> ready_begin(n_envs, 0);
  for (std::size_t g = 0; g < n_envs; ++g) {
    ready_begin[g] = ready_rows.size();
    for (std::size_t p : batch[g]->ready_positions) {
      ready_rows.push_back(offsets[g] + p);
    }
  }
  const Var scores =
      actor_head_->forward(tensor::gather_rows(h, ready_rows));

  // ∅ scores for every graph. Rows of graphs that disallow idling never
  // reach a loss, so their gradient contribution is exactly zero.
  const Var idle_scores = idle_head_->forward(
      tensor::concat_cols(rstate, tensor::segment_max_rows(h, offsets)));

  std::vector<Output> outs(n_envs);
  for (std::size_t g = 0; g < n_envs; ++g) {
    const Observation& o = *batch[g];
    const std::size_t k = o.ready_tasks.size();
    Var logits = tensor::reshape(
        tensor::slice_rows(scores, ready_begin[g], k), 1, k);
    if (o.allow_idle) {
      logits = tensor::concat_cols(logits,
                                   tensor::slice_rows(idle_scores, g, 1));
    }
    outs[g].probs = tensor::softmax_row(logits);
    outs[g].log_probs = tensor::log_softmax_row(logits);
    outs[g].value = tensor::slice_rows(values, g, 1);
  }
  return outs;
}

}  // namespace readys::rl
