#pragma once

#include <string>
#include <vector>

#include "tensor/autograd.hpp"

namespace readys::nn {

using tensor::Tensor;
using tensor::Var;

/// Base class for first-order optimizers over a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params);
  virtual ~Optimizer() = default;

  /// Zeroes every parameter gradient.
  void zero_grad();

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clipping norm, which is NaN/Inf whenever any
  /// gradient entry is — callers use it to detect poisoned backward
  /// passes before step() bakes them into the weights.
  double clip_grad_norm(double max_norm);

  /// True iff every accumulated gradient entry is finite. A NaN/Inf
  /// gradient stepped into the weights is unrecoverable (Adam moments
  /// keep the poison), so trainers check this (or the clip_grad_norm
  /// return) and skip the update instead.
  bool grads_finite() const;

  /// The optimizer's internal state (moment estimates, step count) as
  /// text rows, so checkpoints can capture it and a resumed run steps
  /// exactly like the uninterrupted one — resuming Adam without its
  /// moments silently diverges. Doubles carry 17 significant digits
  /// (exact round trip). The base implementation is stateless and
  /// returns no rows.
  virtual std::vector<std::string> state_rows() const { return {}; }

  /// Restores rows produced by state_rows() on an identically-shaped
  /// optimizer. Malformed rows, a parameter-count or shape mismatch all
  /// throw std::runtime_error and leave the optimizer untouched (the
  /// rows are fully validated before any state is applied).
  virtual void load_state_rows(const std::vector<std::string>& rows);

 protected:
  std::vector<Var> params_;
};

/// Adam (Kingma & Ba). Defaults match PyTorch: beta1=0.9, beta2=0.999,
/// eps=1e-8 — the paper trains with Adam(lr=0.01) and PyTorch defaults.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Var> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);
  void step() override;
  /// First/second moments plus the bias-correction step count t.
  std::vector<std::string> state_rows() const override;
  void load_state_rows(const std::vector<std::string>& rows) override;

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  long t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace readys::nn
