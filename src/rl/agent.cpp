#include "rl/agent.hpp"

#include "nn/serialize.hpp"
#include "rl/readys_scheduler.hpp"

namespace readys::rl {

ReadysAgent::ReadysAgent(int kernel_types, AgentConfig config)
    : kernel_types_(kernel_types), config_(config) {
  net_ = std::make_unique<PolicyNet>(
      StateEncoder::node_feature_width(kernel_types),
      StateEncoder::kResourceFeatureWidth, config_);
  trainer_ = std::make_unique<A2CTrainer>(*net_, config_);
}

TrainReport ReadysAgent::train(const dag::TaskGraph& graph,
                               const sim::Platform& platform,
                               const sim::CostModel& costs,
                               const TrainOptions& opts) {
  VecEnv envs(graph, platform, costs, {opts.sigma, config_.window, opts.seed},
              1);
  return trainer_->train(envs, opts);
}

std::vector<double> ReadysAgent::evaluate(const dag::TaskGraph& graph,
                                          const sim::Platform& platform,
                                          const sim::CostModel& costs,
                                          double sigma, int episodes,
                                          std::uint64_t seed_base,
                                          bool greedy) {
  return evaluate_policy(*net_, config_.window, graph, platform, costs, sigma,
                         episodes, seed_base, greedy);
}

void ReadysAgent::save(const std::string& path) const {
  nn::save_parameters(*net_, path);
}

void ReadysAgent::load(const std::string& path) {
  nn::load_parameters(*net_, path);
}

}  // namespace readys::rl
