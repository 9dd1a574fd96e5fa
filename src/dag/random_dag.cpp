#include "dag/random_dag.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace readys::dag {

TaskGraph random_layered_dag(const RandomDagConfig& config, util::Rng& rng) {
  if (config.layers < 1 || config.width < 1 || config.kernel_types < 1) {
    throw std::invalid_argument("random_layered_dag: bad configuration");
  }
  if (!(config.edge_density >= 0.0 && config.edge_density <= 1.0)) {
    throw std::invalid_argument(
        "random_layered_dag: edge_density must be a finite value in [0, 1]");
  }
  std::vector<std::string> kernel_names;
  for (int k = 0; k < config.kernel_types; ++k) {
    // Built in place: "K" + std::to_string(k) trips GCC 12's -Wrestrict
    // false positive inside libstdc++.
    std::string name = std::to_string(k);
    name.insert(name.begin(), 'K');
    kernel_names.push_back(std::move(name));
  }
  TaskGraph g("random_dag", std::move(kernel_names));

  std::vector<std::vector<TaskId>> layers(
      static_cast<std::size_t>(config.layers));
  for (auto& layer : layers) {
    layer.reserve(static_cast<std::size_t>(config.width));
    for (int i = 0; i < config.width; ++i) {
      layer.push_back(
          g.add_task(static_cast<int>(rng.uniform_index(
              static_cast<std::size_t>(config.kernel_types)))));
    }
  }
  // rng.uniform() < d compares k * 2^-53 with d for the 53-bit draw
  // k = rng() >> 11. Scaling by 2^53 is exact and k is an integer, so the
  // test is k < ceil(d * 2^53): the same edges from the same draws,
  // without the conversion to double.
  const auto threshold =
      static_cast<std::uint64_t>(std::ceil(config.edge_density * 0x1.0p53));
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    const std::vector<TaskId>& from = layers[l];
    for (TaskId v : layers[l + 1]) {
      bool has_pred = false;
      for (std::size_t i = 0;; ++i) {
        // Draw up to the next edge on a local copy of the generator,
        // which the compiler keeps in registers.
        util::Rng draw = rng;
        while (i < from.size() && (draw() >> 11) >= threshold) ++i;
        rng = draw;
        if (i == from.size()) break;
        g.add_edge(from[i], v);
        has_pred = true;
      }
      if (config.connect_layers && !has_pred) {
        g.add_edge(from[rng.uniform_index(from.size())], v);
      }
    }
  }
  return g;
}

}  // namespace readys::dag
