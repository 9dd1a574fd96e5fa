#include "sim/engine_view.hpp"

namespace readys::sim {

std::vector<ResourceId> EngineView::idle_resources() const {
  if (engine_) return engine_->idle_resources();
  std::vector<ResourceId> out;
  for (const ResourceId r : *state_->resources) {
    if (is_idle(r)) out.push_back(r);
  }
  return out;
}

double EngineView::expected_available_at(ResourceId r) const {
  if (engine_) return engine_->expected_available_at(r);
  return (*state_->avail)[static_cast<std::size_t>(r)];
}

double EngineView::expected_input_delay(dag::TaskId t, ResourceId r) const {
  if (engine_) return engine_->expected_input_delay(t, r);
  return state_->base->expected_input_delay(t, r);
}

}  // namespace readys::sim
