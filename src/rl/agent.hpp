#pragma once

#include <memory>
#include <string>

#include "rl/a2c.hpp"

namespace readys::rl {

/// High-level facade over the READYS agent: owns the policy network and
/// exposes train / evaluate / save / load. One agent can be trained on
/// one (graph, platform) combination and evaluated — or transferred — to
/// any other, as long as the number of kernel types matches (the paper's
/// transfer experiments reuse Cholesky agents across problem sizes).
class ReadysAgent {
 public:
  /// `kernel_types` fixes the node-feature width (4 for the tiled
  /// factorizations).
  ReadysAgent(int kernel_types, AgentConfig config);

  const AgentConfig& config() const noexcept { return config_; }
  PolicyNet& net() noexcept { return *net_; }
  const PolicyNet& net() const noexcept { return *net_; }
  int kernel_types() const noexcept { return kernel_types_; }

  /// Trains on the given instance with the paper's terminal reward.
  TrainReport train(const dag::TaskGraph& graph, const sim::Platform& platform,
                    const sim::CostModel& costs, const TrainOptions& opts);

  /// Makespans of the current policy over `episodes` evaluation seeds
  /// (rl::evaluate_policy).
  std::vector<double> evaluate(const dag::TaskGraph& graph,
                               const sim::Platform& platform,
                               const sim::CostModel& costs, double sigma,
                               int episodes, std::uint64_t seed_base,
                               bool greedy = true);

  /// Weight (de)serialization; the loading agent must be constructed with
  /// the same AgentConfig (architecture is not stored).
  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  int kernel_types_;
  AgentConfig config_;
  std::unique_ptr<PolicyNet> net_;
  std::unique_ptr<A2CTrainer> trainer_;
};

}  // namespace readys::rl
