#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "rl/env.hpp"
#include "rl/inference.hpp"
#include "rl/policy_net.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace readys::rl {

/// How a ReadysScheduler evaluates the policy. The defaults keep the
/// historical bit-exact behavior (f64 reference arithmetic).
struct ReadysOptions {
  bool greedy = true;          ///< argmax instead of sampling from π
  std::uint64_t seed = 1;      ///< seeds the sampling and offer streams
  bool random_offer = false;   ///< must match how the policy was trained
  /// Inference arithmetic: kF64Ref reproduces PolicyNet::forward
  /// bit-for-bit; kF32Simd runs the float32 SIMD fast path (argmax
  /// agreement pinned by tests, not bit-exact).
  InferenceBackendKind backend = InferenceBackendKind::kF64Ref;
};

/// Adapter running a (trained) READYS policy under the generic Simulator,
/// so the agent can be compared, traced, and validity-checked exactly
/// like HEFT and MCT. Offers go through the same DecisionPoint as
/// SchedulingEnv, so a greedy policy schedules identically under both.
///
/// The policy is evaluated through an InferenceBackend built in reset()
/// — per episode, so a kF32Simd weight snapshot stays fresh across
/// train-then-evaluate flows.
class ReadysScheduler : public sim::Scheduler {
 public:
  /// The policy must outlive the scheduler.
  ReadysScheduler(const PolicyNet& net, int window, ReadysOptions opts);

  void reset(const sim::EngineView& engine) override;
  std::vector<sim::Assignment> decide(const sim::EngineView& engine) override;
  std::string name() const override { return "READYS"; }

 private:
  const PolicyNet* net_;
  int window_;
  ReadysOptions opts_;
  util::Rng rng_;
  std::unique_ptr<InferenceBackend> backend_;
  std::uint64_t backend_version_ = 0;  ///< net weight_version backend_ saw
  std::optional<DecisionPoint> decision_;  ///< built per reset()
  InferenceOutput out_;  ///< scratch, reused per decision
};

/// The one evaluation path of a policy: makespans of `episodes` runs
/// under sim::Simulator, run i scheduled by ReadysScheduler{greedy,
/// seed_base + i} at noise seed seed_base + i. A pure function of
/// (weights, seed_base), whatever trained the net before.
std::vector<double> evaluate_policy(const PolicyNet& net, int window,
                                    const dag::TaskGraph& graph,
                                    const sim::Platform& platform,
                                    const sim::CostModel& costs, double sigma,
                                    int episodes, std::uint64_t seed_base,
                                    bool greedy);

/// Registers (or re-registers) the trained policy in sched::registry()
/// under the name "readys", so bench/CLI code can construct it like any
/// heuristic: make_scheduler("readys", {.seed = 3, .greedy = false}), or
/// with per-spec overrides: "readys(backend=f32simd)".
/// `defaults` seeds the options every spec starts from (the CLI routes
/// RunConfig::inference_backend through it), so plain "readys" — and
/// wrapped forms like "guarded:readys" — inherit the configured backend.
/// The net must outlive every scheduler the registry hands out. Lives
/// here — not in sched — because sched cannot depend on rl.
void register_readys_scheduler(const PolicyNet& net, int window,
                               ReadysOptions defaults = {});

}  // namespace readys::rl
