#include "rl/inference.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "rl/policy_net.hpp"
#include "tensor/autograd.hpp"
#include "tensor/f32.hpp"

namespace readys::rl {

InferenceBackendKind parse_inference_backend(const std::string& name) {
  if (name == "f64ref") return InferenceBackendKind::kF64Ref;
  if (name == "f32simd") return InferenceBackendKind::kF32Simd;
  throw std::invalid_argument("unknown inference backend \"" + name +
                              "\" (known: f64ref, f32simd)");
}

const char* inference_backend_name(InferenceBackendKind kind) noexcept {
  return kind == InferenceBackendKind::kF32Simd ? "f32simd" : "f64ref";
}

std::size_t choose_action(std::span<const double> probs, util::Rng* rng) {
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (!std::isfinite(probs[i])) {
      throw std::runtime_error("non-finite policy probability " +
                               std::to_string(probs[i]) + " at action " +
                               std::to_string(i));
    }
  }
  if (rng == nullptr) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < probs.size(); ++i) {
      if (probs[i] > probs[best]) best = i;
    }
    return best;
  }
  const double u = rng->uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    if (u < acc) return i;
  }
  return probs.size() - 1;  // numerical slack
}

namespace {

WeightArray to_f32(const tensor::Tensor& t) {
  WeightArray out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    out[i] = static_cast<float>(t[i]);
  }
  return out;
}

/// Row softmax + log-softmax in double over the float logits, with the
/// same max-subtraction stabilization as tensor::softmax_row.
void softmax_rows(const std::vector<double>& logits, InferenceOutput& out) {
  const std::size_t n = logits.size();
  out.probs.resize(n);
  out.log_probs.resize(n);
  double mx = logits[0];
  for (std::size_t i = 1; i < n; ++i) mx = std::max(mx, logits[i]);
  double z = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.probs[i] = std::exp(logits[i] - mx);
    z += out.probs[i];
  }
  for (std::size_t i = 0; i < n; ++i) out.probs[i] /= z;
  const double logz = mx + std::log(z);
  for (std::size_t i = 0; i < n; ++i) out.log_probs[i] = logits[i] - logz;
}

}  // namespace

namespace {
std::atomic<std::uint64_t> g_snapshot_builds{0};
}  // namespace

std::uint64_t InferenceWeights::snapshot_builds() noexcept {
  return g_snapshot_builds.load(std::memory_order_relaxed);
}

InferenceWeights InferenceWeights::snapshot(const PolicyNet& net) {
  g_snapshot_builds.fetch_add(1, std::memory_order_relaxed);
  InferenceWeights w;
  w.node_features = net.node_features();
  w.resource_features = net.resource_features();
  w.hidden = net.hidden();
  w.gcn_in.resize(static_cast<std::size_t>(net.num_gcn_layers()));
  w.gcn_w.resize(w.gcn_in.size());
  w.gcn_b.resize(w.gcn_in.size());

  bool have_value = false;
  std::size_t value_rows = 0;
  for (const auto& [name, var] : net.named_parameters()) {
    const tensor::Tensor& v = var.value();
    if (name.rfind("gcn", 0) == 0) {
      const std::size_t dot = name.find('.');
      const std::size_t layer =
          static_cast<std::size_t>(std::stoi(name.substr(3, dot - 3)));
      if (layer >= w.gcn_in.size()) {
        throw std::invalid_argument(
            "InferenceWeights: unexpected GCN layer in \"" + name + "\"");
      }
      if (name.ends_with(".weight")) {
        w.gcn_in[layer] = v.rows();
        w.gcn_w[layer] = to_f32(v);
      } else {
        w.gcn_b[layer] = to_f32(v);
      }
    } else if (name == "actor.weight") {
      w.actor_w = to_f32(v);
    } else if (name == "actor.bias") {
      w.actor_b = static_cast<float>(v.item());
    } else if (name == "res_proj.weight") {
      w.res_w = to_f32(v);
    } else if (name == "res_proj.bias") {
      w.res_b = to_f32(v);
    } else if (name == "idle.weight") {
      w.idle_w = to_f32(v);
    } else if (name == "idle.bias") {
      w.idle_b = static_cast<float>(v.item());
    } else if (name == "value.weight") {
      w.value_w = to_f32(v);
      value_rows = v.rows();
      have_value = true;
    } else if (name == "value.bias") {
      w.value_b = static_cast<float>(v.item());
    } else {
      throw std::invalid_argument(
          "InferenceWeights: unexpected parameter \"" + name +
          "\" (not a PolicyNet?)");
    }
  }
  if (!have_value || w.actor_w.empty() || w.gcn_w.empty() ||
      w.gcn_w.front().empty()) {
    throw std::invalid_argument(
        "InferenceWeights: missing PolicyNet parameters");
  }
  w.critic_sees_resources =
      value_rows == 2 * static_cast<std::size_t>(w.hidden);
  return w;
}

// --- F64Ref ---------------------------------------------------------------

void F64RefBackend::forward(const Observation& obs, InferenceOutput& out) {
  readys::obs::Telemetry* t = readys::obs::telemetry();
  readys::obs::Span span("rl/infer", "infer", t ? &t->infer_us : nullptr);
  tensor::NoGradGuard no_grad;
  const PolicyNet::Output o = net_->forward(obs);
  const tensor::Tensor& p = o.probs.value();
  const tensor::Tensor& lp = o.log_probs.value();
  out.probs.assign(p.data(), p.data() + p.size());
  out.log_probs.assign(lp.data(), lp.data() + lp.size());
  out.value = o.value.value().item();
}

void F64RefBackend::forward_batched(
    const std::vector<const Observation*>& batch,
    std::vector<InferenceOutput>& outs) {
  readys::obs::Telemetry* t = readys::obs::telemetry();
  readys::obs::Span span("rl/infer_batched", "infer",
                         t ? &t->infer_us : nullptr);
  tensor::NoGradGuard no_grad;
  const std::vector<PolicyNet::Output> os = net_->forward_batched(batch);
  outs.resize(os.size());
  for (std::size_t i = 0; i < os.size(); ++i) {
    const tensor::Tensor& p = os[i].probs.value();
    const tensor::Tensor& lp = os[i].log_probs.value();
    outs[i].probs.assign(p.data(), p.data() + p.size());
    outs[i].log_probs.assign(lp.data(), lp.data() + lp.size());
    outs[i].value = os[i].value.value().item();
  }
}

// --- F32Simd --------------------------------------------------------------

F32SimdBackend::F32SimdBackend(InferenceWeights weights)
    : F32SimdBackend(
          std::make_shared<const InferenceWeights>(std::move(weights))) {}

F32SimdBackend::F32SimdBackend(std::shared_ptr<const InferenceWeights> weights)
    : w_(std::move(weights)) {
  if (!w_) {
    throw std::invalid_argument("F32SimdBackend: null weight snapshot");
  }
}

void F32SimdBackend::forward(const Observation& obs, InferenceOutput& out) {
  readys::obs::Telemetry* t = readys::obs::telemetry();
  readys::obs::Span span("rl/infer", "infer", t ? &t->infer_us : nullptr);
  if (obs.ready_tasks.empty()) {
    throw std::invalid_argument("F32SimdBackend::forward: no ready task");
  }
  const std::size_t n = obs.features.rows();
  const std::size_t f = obs.features.cols();
  const std::size_t h = static_cast<std::size_t>(w_->hidden);
  const std::size_t rf = static_cast<std::size_t>(w_->resource_features);
  if (f != w_->gcn_in.front()) {
    throw std::invalid_argument(
        "F32SimdBackend::forward: feature width mismatch");
  }
  if (obs.resource_state.cols() != rf) {
    throw std::invalid_argument(
        "F32SimdBackend::forward: resource width mismatch");
  }
  // Â is consumed only through its CSR view: O(nnz) instead of O(n^2),
  // the decisive win for large windows. Every encoder fills it.
  if (obs.ahat_csr.rows() != n) {
    throw std::invalid_argument(
        "F32SimdBackend::forward: ahat_csr missing or sized for another "
        "window");
  }

  arena_.reset();

  float* x = arena_.alloc_f32(n * f);
  for (std::size_t i = 0; i < n * f; ++i) {
    x[i] = static_cast<float>(obs.features[i]);
  }

  // GCN trunk: H' = Ahat (H W) + b, ReLU between layers (not after the
  // last) — the same composition as PolicyNet::embed. The CSR product
  // accumulates term for term in the dense kernel's order (ascending
  // columns), so it produces the same floats as a dense Â would.
  const std::size_t layers = w_->gcn_in.size();
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t in = w_->gcn_in[l];
    float* xw = arena_.alloc_f32(n * h);
    tensor::f32::matmul_bias(x, n, in, w_->gcn_w[l].data(), h, nullptr, xw);
    float* hl = arena_.alloc_f32(n * h);
    tensor::f32::spmm_bias(obs.ahat_csr.row_ptr.data(), obs.ahat_csr.col.data(),
                           obs.ahat_csr.val.data(), n, xw, h,
                           w_->gcn_b[l].data(), hl);
    if (l + 1 < layers) tensor::f32::relu_inplace(hl, n * h);
    x = hl;
  }
  const float* emb = x;  // n x h node embeddings

  // Resource embedding: relu(res W + b), 1 x h.
  float* res_in = arena_.alloc_f32(rf);
  for (std::size_t i = 0; i < rf; ++i) {
    res_in[i] = static_cast<float>(obs.resource_state[i]);
  }
  float* rstate = arena_.alloc_f32(h);
  tensor::f32::matmul_bias(res_in, 1, rf, w_->res_w.data(), h,
                           w_->res_b.data(), rstate);
  tensor::f32::relu_inplace(rstate, h);

  // Critic: mean-pool (+ resource embedding when configured) -> scalar.
  float* pooled = arena_.alloc_f32(h);
  tensor::f32::mean_cols(emb, n, h, pooled);
  float v;
  if (w_->critic_sees_resources) {
    v = tensor::f32::dot(pooled, w_->value_w.data(), h) +
        tensor::f32::dot(rstate, w_->value_w.data() + h, h) + w_->value_b;
  } else {
    v = tensor::f32::dot(pooled, w_->value_w.data(), h) + w_->value_b;
  }
  out.value = static_cast<double>(v);

  // Actor scores per ready row, plus the ∅ score when idling is legal.
  const std::size_t k = obs.ready_tasks.size();
  logits_.resize(k + (obs.allow_idle ? 1 : 0));
  for (std::size_t i = 0; i < k; ++i) {
    const float* row = emb + obs.ready_positions[i] * h;
    logits_[i] = static_cast<double>(
        tensor::f32::dot(row, w_->actor_w.data(), h) + w_->actor_b);
  }
  if (obs.allow_idle) {
    float* maxp = arena_.alloc_f32(h);
    tensor::f32::max_cols(emb, n, h, maxp);
    // idle head input is [rstate ‖ maxpool].
    const float s = tensor::f32::dot(rstate, w_->idle_w.data(), h) +
                    tensor::f32::dot(maxp, w_->idle_w.data() + h, h) +
                    w_->idle_b;
    logits_[k] = static_cast<double>(s);
  }
  softmax_rows(logits_, out);
}

void F32SimdBackend::forward_batched(
    const std::vector<const Observation*>& batch,
    std::vector<InferenceOutput>& outs) {
  if (batch.empty()) {
    throw std::invalid_argument("F32SimdBackend::forward_batched: empty batch");
  }
  // Without an autograd graph there is nothing to pack: a per-graph loop
  // is the block-diagonal product computed block by block, so each
  // session's output is trivially independent of batch composition.
  outs.resize(batch.size());
  for (std::size_t g = 0; g < batch.size(); ++g) {
    forward(*batch[g], outs[g]);
  }
}

// --- factory --------------------------------------------------------------

std::unique_ptr<InferenceBackend> make_inference_backend(
    const PolicyNet& net, InferenceBackendKind kind) {
  if (kind == InferenceBackendKind::kF32Simd) {
    return std::make_unique<F32SimdBackend>(InferenceWeights::snapshot(net));
  }
  return std::make_unique<F64RefBackend>(net);
}

}  // namespace readys::rl
