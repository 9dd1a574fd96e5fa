#pragma once

#include <memory>
#include <vector>

#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "rl/config.hpp"
#include "rl/state_encoder.hpp"

namespace readys::rl {

class InferenceBackend;
enum class InferenceBackendKind : int;

using tensor::Var;

/// The READYS network (Fig. 2 of the paper).
///
/// A stack of GCN layers embeds the window sub-DAG. The critic projects
/// the mean-pooled embedding to a scalar V(s). The actor scores each
/// ready task via a shared one-dimensional projection of its embedding;
/// the ∅ action's score is projected from [resource-state embedding ‖
/// max-pooled DAG embedding]. A softmax over the scores yields π(a|s).
class PolicyNet : public nn::Module {
 public:
  struct Output {
    Var probs;      ///< 1 x num_actions
    Var log_probs;  ///< 1 x num_actions
    Var value;      ///< 1 x 1
  };

  PolicyNet(int node_features, int resource_features, const AgentConfig& cfg);

  /// Full forward pass for one observation. Requires at least one ready
  /// task (decision instants always have one by construction).
  Output forward(const Observation& obs) const;

  /// Batched forward over N observations (possibly from different
  /// graphs, as long as the feature width matches): the N window
  /// sub-DAGs run through the GCN trunk as one block-diagonal pass and
  /// the heads as packed matrices; softmax/value stay per-observation.
  /// outs[g] matches forward(*batch[g]) bit-for-bit in value (the ops
  /// replicate the per-graph arithmetic exactly); gradients agree to
  /// floating-point accumulation order (≤1e-10 in practice). A batch of
  /// one delegates to forward(): same graph, backward included.
  std::vector<Output> forward_batched(
      const std::vector<const Observation*>& batch) const;

  int node_features() const noexcept { return node_features_; }
  int resource_features() const noexcept { return resource_features_; }
  int hidden() const noexcept { return hidden_; }
  int num_gcn_layers() const noexcept {
    return static_cast<int>(gcn_.size());
  }
  bool critic_sees_resources() const noexcept {
    return critic_sees_resources_;
  }

  /// Builds an inference-only backend over this net (see
  /// rl/inference.hpp): kF64Ref reads the weights live and reproduces
  /// forward()/forward_batched() bit-for-bit; kF32Simd freezes a float32
  /// snapshot of the current weights for the SIMD fast path. The net
  /// must outlive a kF64Ref backend; a kF32Simd backend is
  /// self-contained after construction.
  std::unique_ptr<InferenceBackend> make_inference(
      InferenceBackendKind kind) const;

 private:
  /// GCN stack over (N x node_features) rows `h` -> (N x hidden) node
  /// embeddings.
  Var embed(const tensor::SparseAdj& ahat, Var h) const;

  int node_features_;
  int resource_features_;
  int hidden_;
  bool critic_sees_resources_ = true;
  std::vector<std::unique_ptr<nn::GCNLayer>> gcn_;
  std::unique_ptr<nn::Linear> actor_head_;   // hidden -> 1
  std::unique_ptr<nn::Linear> res_proj_;     // resource feats -> hidden
  std::unique_ptr<nn::Linear> idle_head_;    // 2*hidden -> 1
  std::unique_ptr<nn::Linear> value_head_;   // hidden -> 1
};

}  // namespace readys::rl
