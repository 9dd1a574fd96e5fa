#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "rl/state_encoder.hpp"
#include "tensor/arena.hpp"
#include "util/rng.hpp"

namespace readys::rl {

class PolicyNet;

/// Which InferenceBackend implementation to build (see docs/api.md,
/// "Inference backends"). kF64Ref delegates to the double-precision
/// autograd forward under NoGradGuard and is bit-exact with training;
/// kF32Simd runs the float32 SIMD kernels (tensor/f32.hpp) over a frozen
/// weight snapshot — tolerance-pinned against the reference, never used
/// by trainers.
enum class InferenceBackendKind : int { kF64Ref, kF32Simd };

/// "f64ref" <-> kF64Ref, "f32simd" <-> kF32Simd; parse throws
/// std::invalid_argument on anything else (shared by RunConfig::validate,
/// the registry spec `readys(backend=...)` and the CLI flag).
InferenceBackendKind parse_inference_backend(const std::string& name);
const char* inference_backend_name(InferenceBackendKind kind) noexcept;

/// One policy evaluation as plain rows — no tensor::autograd types in
/// the signature. `probs` and `log_probs` have obs.num_actions()
/// entries; buffers are reused across calls when the caller passes the
/// same object back in.
struct InferenceOutput {
  std::vector<double> probs;
  std::vector<double> log_probs;
  double value = 0.0;
};

/// The one action rule over a policy row π(·|s), used by training
/// rollouts, ReadysScheduler, serve and the reload probe. A null `rng`
/// picks greedily: the first maximum, so ties go to the lowest index.
/// Otherwise one uniform draw selects by cumulative scan, and the last
/// index absorbs numerical slack. Throws std::runtime_error naming the
/// first non-finite entry before any draw. `probs` must not be empty.
std::size_t choose_action(std::span<const double> probs, util::Rng* rng);

/// The inference-only surface extracted from PolicyNet: π(a|s), log π
/// and V(s) for one observation (or a batch), over weights frozen at
/// construction time. Implementations are NOT thread-safe — one backend
/// per worker/replica, matching serve's replica model. Build one via
/// PolicyNet::make_inference(kind).
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  virtual const char* name() const noexcept = 0;

  /// Evaluates one observation, reusing `out`'s buffers. Throws
  /// std::invalid_argument when the observation has no ready task
  /// (mirroring PolicyNet::forward).
  virtual void forward(const Observation& obs, InferenceOutput& out) = 0;

  /// Evaluates a batch; outs is resized to batch.size(). Per-graph
  /// results match forward() on that observation alone bit-for-bit —
  /// the session-isolation keystone serve relies on. Throws like the
  /// training path on an empty batch / missing ready task / feature
  /// width mismatch.
  virtual void forward_batched(const std::vector<const Observation*>& batch,
                               std::vector<InferenceOutput>& outs) = 0;
};

/// Frozen float32 snapshot of a PolicyNet's parameters, in the layout
/// the f32 kernels consume (row-major, per-layer). Taking a snapshot is
/// the explicit "weights are now fixed" point of the fast path: a
/// later optimizer step on the source net does not affect backends
/// already built (re-snapshot by constructing a new backend — see
/// ReadysScheduler::reset, which does this per episode).
/// Allocator of cache-line-aligned storage. The f32 kernels' 256-bit
/// loads of a weight row then never straddle two cache lines, however the
/// heap happened to be laid out when the snapshot was taken.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlign);
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) noexcept {
    return true;
  }
};

/// A frozen float32 weight array.
using WeightArray = std::vector<float, CacheLineAllocator<float>>;

struct InferenceWeights {
  int node_features = 0;
  int resource_features = 0;
  int hidden = 0;
  bool critic_sees_resources = false;
  std::vector<std::size_t> gcn_in;         ///< input width per GCN layer
  std::vector<WeightArray> gcn_w;          ///< per layer, gcn_in[l] x hidden
  std::vector<WeightArray> gcn_b;          ///< per layer, 1 x hidden
  WeightArray actor_w;                     ///< hidden x 1, flattened
  float actor_b = 0.0f;
  WeightArray res_w;                       ///< resource_features x hidden
  WeightArray res_b;                       ///< 1 x hidden
  WeightArray idle_w;                      ///< 2*hidden x 1
  float idle_b = 0.0f;
  WeightArray value_w;                     ///< (2*)hidden x 1
  float value_b = 0.0f;

  /// Rounds every parameter of `net` to float. Throws
  /// std::invalid_argument when the parameter names do not describe a
  /// PolicyNet architecture.
  static InferenceWeights snapshot(const PolicyNet& net);

  /// Process-wide count of snapshot() calls. Purely observability: lets
  /// tests pin that cached backends are reused instead of rebuilding the
  /// snapshot every episode (see ReadysScheduler::reset) and that serve
  /// workers share one snapshot per published version.
  static std::uint64_t snapshot_builds() noexcept;
};

/// Bit-exact reference backend: delegates to PolicyNet::forward /
/// forward_batched under tensor::NoGradGuard and copies the rows out.
/// Reads the net's weights live (the net must outlive the backend), so
/// it is exactly "today's path" behind the new interface.
class F64RefBackend final : public InferenceBackend {
 public:
  explicit F64RefBackend(const PolicyNet& net) : net_(&net) {}

  const char* name() const noexcept override { return "f64ref"; }
  void forward(const Observation& obs, InferenceOutput& out) override;
  void forward_batched(const std::vector<const Observation*>& batch,
                       std::vector<InferenceOutput>& outs) override;

 private:
  const PolicyNet* net_;
};

/// Float32 SIMD backend over an InferenceWeights snapshot: no autograd
/// graph, arena-allocated activations, AVX2 GEMMs with scalar fallback
/// (tensor/f32.hpp dispatches per host). Softmax/log-softmax run in
/// double over the float logits. Same argmax as the reference on
/// >= 99.9% of decisions (pinned in tests/test_inference.cpp).
class F32SimdBackend final : public InferenceBackend {
 public:
  explicit F32SimdBackend(InferenceWeights weights);

  /// Shares a frozen snapshot instead of owning a private copy — how
  /// serve's PolicyStore fans one published version out to every worker
  /// without per-worker re-snapshotting. The snapshot is immutable after
  /// publication, so concurrent backends over the same pointer are safe
  /// (each backend keeps its own arena/scratch).
  explicit F32SimdBackend(std::shared_ptr<const InferenceWeights> weights);

  const char* name() const noexcept override { return "f32simd"; }
  void forward(const Observation& obs, InferenceOutput& out) override;
  void forward_batched(const std::vector<const Observation*>& batch,
                       std::vector<InferenceOutput>& outs) override;

  const InferenceWeights& weights() const noexcept { return *w_; }

 private:
  std::shared_ptr<const InferenceWeights> w_;
  tensor::Arena arena_;
  std::vector<double> logits_;  ///< reused per-decision scratch row
};

/// Factory behind PolicyNet::make_inference (kept a free function so
/// callers holding only a const PolicyNet& can build backends too).
std::unique_ptr<InferenceBackend> make_inference_backend(
    const PolicyNet& net, InferenceBackendKind kind);

}  // namespace readys::rl
