#pragma once

#include <vector>

#include "sim/engine.hpp"

namespace readys::sim {

class EngineView;

/// Scoped observable state backing an EngineView that does not wrap a
/// live SimEngine: the cluster layer's per-shard views. A scoped state
/// owns the tables that differ per shard (visible resources, local ready
/// set, masked liveness and availability) and forwards every global fact
/// (readiness, completion, placement, durations, input delays) to the
/// full view in `base`.
///
/// Every pointer except `comm` is required. All are non-owning; the
/// pointees must outlive the views built on top.
struct EngineState {
  // Static context.
  const dag::TaskGraph* graph = nullptr;
  const Platform* platform = nullptr;
  const CostModel* costs = nullptr;
  const CommModel* comm = nullptr;  ///< null = no communication model

  // Scalars, refreshed by the owner before handing out views.
  double now = 0.0;
  bool fault_enabled = false;
  /// Global "anything in flight" flag. Deliberately global even for
  /// shard-scoped views: the simulator's stall rule (the empty action is
  /// illegal when nothing runs anywhere) is a whole-platform property.
  bool any_running = false;

  // Scoped tables.
  const std::vector<ResourceId>* resources = nullptr;  ///< visible, ascending
  const std::vector<dag::TaskId>* ready = nullptr;     ///< ascending ids
  const std::vector<dag::TaskId>* ready_log = nullptr; ///< append-only
  const std::vector<RunningInfo>* running = nullptr;   ///< start order
  const std::vector<std::uint8_t>* up = nullptr;       ///< per resource
  /// Resolved availability per resource: max(now, expected finish),
  /// +inf when down.
  const std::vector<double>* avail = nullptr;

  /// Full view every global fact is read from. Readiness is a DAG fact,
  /// not an ownership fact, so is_ready() answers globally even for tasks
  /// the shard does not own (its ready() list stays scoped).
  const EngineView* base = nullptr;
};

/// Read-only window onto simulation state — the surface schedulers see.
///
/// Non-virtual by design: the decide() hot path runs millions of times
/// per second and every accessor is one predictable branch between the
/// two backends. Engine-backed views convert implicitly from SimEngine
/// so call sites (`scheduler.decide(engine)`) stay source-compatible;
/// state-backed views let the cluster layer present a shard's scoped
/// state through the same interface without SimEngine inheriting
/// anything.
///
/// Views are cheap value types (two pointers); they do not own state and
/// must not outlive the engine or EngineState they wrap.
class EngineView {
 public:
  /*implicit*/ EngineView(const SimEngine& engine) : engine_(&engine) {}
  explicit EngineView(const EngineState& state) : state_(&state) {}

  double now() const noexcept {
    return engine_ ? engine_->now() : state_->now;
  }
  const dag::TaskGraph& graph() const noexcept {
    return engine_ ? engine_->graph() : *state_->graph;
  }
  const Platform& platform() const noexcept {
    return engine_ ? engine_->platform() : *state_->platform;
  }
  const CostModel& costs() const noexcept {
    return engine_ ? engine_->costs() : *state_->costs;
  }

  /// Visible resource ids, ascending. The full view of a P-resource
  /// platform sees 0..P-1; a shard-scoped view sees only its own
  /// resources — which is what makes per-shard decide scans O(P/K).
  const std::vector<ResourceId>& resources() const noexcept {
    return engine_ ? engine_->platform().ids() : *state_->resources;
  }

  const std::vector<dag::TaskId>& ready() const noexcept {
    return engine_ ? engine_->ready() : *state_->ready;
  }
  const std::vector<dag::TaskId>& ready_log() const noexcept {
    return engine_ ? engine_->ready_log() : *state_->ready_log;
  }
  /// See SimEngine::freed_log. A scoped view forwards the global log, so
  /// a scheduler on one filters it by its own resources().
  const std::vector<ResourceId>& freed_log() const noexcept {
    return engine_ ? engine_->freed_log() : state_->base->freed_log();
  }
  const std::vector<RunningInfo>& running() const noexcept {
    return engine_ ? engine_->running() : *state_->running;
  }
  bool any_running() const noexcept {
    return engine_ ? engine_->any_running() : state_->any_running;
  }

  bool is_ready(dag::TaskId t) const noexcept {
    if (engine_) return engine_->is_ready(t);
    return state_->base->is_ready(t);
  }
  bool is_up(ResourceId r) const {
    if (engine_) return engine_->is_up(r);
    return (*state_->up)[static_cast<std::size_t>(r)] != 0;
  }
  bool is_idle(ResourceId r) const {
    if (engine_) return engine_->is_idle(r);
    return (*state_->up)[static_cast<std::size_t>(r)] != 0 &&
           running_on(r) == dag::kInvalidTask;
  }
  bool is_done(dag::TaskId t) const {
    if (engine_) return engine_->is_done(t);
    return state_->base->is_done(t);
  }
  dag::TaskId running_on(ResourceId r) const {
    if (engine_) return engine_->running_on(r);
    return state_->base->running_on(r);
  }
  /// Resource that produced t's output, or -1 while t is incomplete.
  ResourceId producer_of(dag::TaskId t) const {
    if (engine_) return engine_->producer_of()[t];
    return state_->base->producer_of(t);
  }

  bool fault_enabled() const noexcept {
    return engine_ ? engine_->fault_enabled() : state_->fault_enabled;
  }
  bool has_comm_model() const noexcept {
    return engine_ ? engine_->has_comm_model() : state_->comm != nullptr;
  }
  /// The communication model behind this view, or nullptr. Lets a
  /// derived (shard-scoped) EngineState re-reference the same model.
  const CommModel* comm_model() const noexcept {
    return engine_ ? engine_->comm_model() : state_->comm;
  }

  double expected_duration(dag::TaskId t, ResourceId r) const {
    if (engine_) return engine_->expected_duration(t, r);
    return state_->base->expected_duration(t, r);
  }

  /// Visible idle resources, ascending (scoped views report only their
  /// own shard's). Materializes a vector like SimEngine::idle_resources.
  std::vector<ResourceId> idle_resources() const;

  /// See SimEngine::expected_available_at; a scoped view reads its
  /// precomputed availability table.
  double expected_available_at(ResourceId r) const;

  /// See SimEngine::expected_input_delay; 0 without a comm model.
  double expected_input_delay(dag::TaskId t, ResourceId r) const;

 private:
  const SimEngine* engine_ = nullptr;
  const EngineState* state_ = nullptr;
};

}  // namespace readys::sim
