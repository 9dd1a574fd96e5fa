#include "rl/state_encoder.hpp"

#include <algorithm>
#include <cstring>

#include "nn/gcn.hpp"
#include "obs/telemetry.hpp"

namespace readys::rl {

StateEncoder::StateEncoder(const dag::TaskGraph& graph,
                           const sim::CostModel& costs, int window)
    : graph_(&graph), static_(graph), costs_(costs), window_(window) {
  time_scale_ = 1.0;
  for (int k = 0; k < graph.num_kernel_types(); ++k) {
    time_scale_ = std::max(
        time_scale_, costs.expected(k, sim::ResourceType::kCpu));
  }
}

Observation StateEncoder::encode(const sim::EngineView& engine,
                                 sim::ResourceId current) const {
  return encode(engine, current, engine.any_running());
}

Observation StateEncoder::encode(const sim::EngineView& engine,
                                 sim::ResourceId current,
                                 bool allow_idle) const {
  Observation obs;
  obs.current_resource = current;
  obs.allow_idle = allow_idle;

  // Seeds: running tasks first, then ready tasks (Fig. 1).
  std::vector<dag::TaskId> seeds;
  seeds.reserve(engine.running().size() + engine.ready().size());
  for (const auto& info : engine.running()) seeds.push_back(info.task);
  for (dag::TaskId t : engine.ready()) seeds.push_back(t);
  obs.window = dag::extract_window(*graph_, seeds, window_);

  const std::size_t n = obs.window.size();
  const int kt = graph_->num_kernel_types();
  const int width = node_feature_width(kt);
  obs.features = tensor::Tensor(n, static_cast<std::size_t>(width));

  // Per-node dynamic context.
  const double now = engine.now();
  for (std::size_t i = 0; i < n; ++i) {
    const dag::TaskId t = obs.window.nodes[i];
    double* row = obs.features.data() + i * static_cast<std::size_t>(width);
    static_.write_static(t, *graph_, row);
    double ready = engine.is_ready(t) ? 1.0 : 0.0;
    double running = 0.0;
    double remaining = 0.0;
    double on_gpu = 0.0;
    for (const auto& info : engine.running()) {
      if (info.task != t) continue;
      running = 1.0;
      remaining =
          std::max(0.0, info.expected_finish - now) / time_scale_;
      on_gpu = engine.platform().type(info.resource) ==
                       sim::ResourceType::kGpu
                   ? 1.0
                   : 0.0;
      break;
    }
    const int base = static_.static_width();
    row[base + 0] = ready;
    row[base + 1] = running;
    row[base + 2] = remaining;
    row[base + 3] = on_gpu;
    const int kernel = graph_->kernel(t);
    const double on_cpu_ms = costs_.expected(kernel, sim::ResourceType::kCpu);
    const double on_gpu_ms = costs_.expected(kernel, sim::ResourceType::kGpu);
    row[base + 4] = on_cpu_ms / time_scale_;
    row[base + 5] = on_gpu_ms / time_scale_;
    row[base + 6] = costs_.expected(kernel, engine.platform().type(current)) /
                    time_scale_;
    if (ready > 0.0) {
      obs.ready_positions.push_back(i);
      obs.ready_tasks.push_back(t);
    }
  }

  nn::normalized_adjacency_csr(n, obs.window.edges, obs.ahat_csr);

  // Platform-agnostic resource summary (see DESIGN.md):
  // [cur-is-gpu, idle-cpu-frac, idle-gpu-frac, cpu-avail, gpu-avail,
  //  cpu-share, gpu-share, ready-pressure].
  const auto& platform = engine.platform();
  obs.resource_state = tensor::Tensor(1, kResourceFeatureWidth);
  double idle_cpu = 0.0;
  double idle_gpu = 0.0;
  double next_cpu = -1.0;
  double next_gpu = -1.0;
  // The summary covers the visible resources only: the full view walks
  // the whole platform (identical to the historical 0..P-1 scan), a
  // shard-scoped view summarizes its own shard — the agent's partial
  // observation under the cluster scheduler.
  double ncpu = 0.0;
  double ngpu = 0.0;
  for (const sim::ResourceId r : engine.resources()) {
    const bool gpu = platform.type(r) == sim::ResourceType::kGpu;
    (gpu ? ngpu : ncpu) += 1.0;
    if (engine.is_idle(r)) (gpu ? idle_gpu : idle_cpu) += 1.0;
    const double avail = engine.expected_available_at(r) - now;
    double& next = gpu ? next_gpu : next_cpu;
    if (next < 0.0 || avail < next) next = avail;
  }
  const double total = ncpu + ngpu;
  obs.resource_state[0] =
      platform.type(current) == sim::ResourceType::kGpu ? 1.0 : 0.0;
  obs.resource_state[1] = ncpu > 0.0 ? idle_cpu / ncpu : 0.0;
  obs.resource_state[2] = ngpu > 0.0 ? idle_gpu / ngpu : 0.0;
  obs.resource_state[3] = next_cpu >= 0.0 ? next_cpu / time_scale_ : 1.0;
  obs.resource_state[4] = next_gpu >= 0.0 ? next_gpu / time_scale_ : 1.0;
  obs.resource_state[5] = ncpu / total;
  obs.resource_state[6] = ngpu / total;
  obs.resource_state[7] =
      n > 0 ? static_cast<double>(obs.ready_tasks.size()) /
                  static_cast<double>(n)
            : 0.0;
  return obs;
}

IncrementalEncoder::IncrementalEncoder(const dag::TaskGraph& graph,
                                       const sim::CostModel& costs,
                                       int window)
    : graph_(&graph), static_(graph), costs_(costs), window_(window) {
  time_scale_ = 1.0;
  for (int k = 0; k < graph.num_kernel_types(); ++k) {
    time_scale_ =
        std::max(time_scale_, costs.expected(k, sim::ResourceType::kCpu));
  }
  const int kt = graph.num_kernel_types();
  width_ = StateEncoder::node_feature_width(kt);
  base_ = static_.static_width();
  // Base rows: everything about a task that does not depend on the
  // schedule or the offered processor. Dynamic columns and the
  // offered-processor duration column stay zero here.
  const std::size_t n_tasks = graph.num_tasks();
  base_rows_ = tensor::Tensor(n_tasks, static_cast<std::size_t>(width_));
  for (std::size_t t = 0; t < n_tasks; ++t) {
    double* row = base_rows_.data() + t * static_cast<std::size_t>(width_);
    static_.write_static(static_cast<dag::TaskId>(t), graph, row);
    const int kernel = graph.kernel(static_cast<dag::TaskId>(t));
    row[base_ + 4] =
        costs_.expected(kernel, sim::ResourceType::kCpu) / time_scale_;
    row[base_ + 5] =
        costs_.expected(kernel, sim::ResourceType::kGpu) / time_scale_;
  }
}

const Observation& IncrementalEncoder::encode(const sim::EngineView& engine,
                                              sim::ResourceId current) {
  return encode(engine, current, engine.any_running());
}

const Observation& IncrementalEncoder::encode(const sim::EngineView& engine,
                                              sim::ResourceId current,
                                              bool allow_idle) {
  obs_.current_resource = current;
  obs_.allow_idle = allow_idle;

  // Seed signature: running tasks then ready tasks, the exact seed order
  // StateEncoder::encode feeds to extract_window. Equal signature ⇒
  // identical window and identical feature-row order.
  seeds_scratch_.clear();
  for (const auto& info : engine.running()) seeds_scratch_.push_back(info.task);
  for (dag::TaskId t : engine.ready()) seeds_scratch_.push_back(t);

  const bool reuse = valid_ && seeds_scratch_ == seeds_;
  if (!reuse) {
    rebuild_topology();
  } else {
    ++reuses_;
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->encoder_delta_events.add();
    }
    // Undo the running columns of the previous encode; everything else
    // dynamic is rewritten unconditionally below.
    for (std::size_t pos : running_rows_) {
      double* row =
          obs_.features.data() + pos * static_cast<std::size_t>(width_);
      row[base_ + 1] = 0.0;
      row[base_ + 2] = 0.0;
      row[base_ + 3] = 0.0;
    }
  }
  running_rows_.clear();

  const std::size_t n = obs_.window.size();
  const std::size_t w = static_cast<std::size_t>(width_);

  // Offered-processor duration column: bitwise a copy of the CPU or GPU
  // column (same division, same operands), refreshed only when the
  // offered type changed or the rows were rebuilt.
  const bool cur_gpu =
      engine.platform().type(current) == sim::ResourceType::kGpu;
  if (static_cast<int>(cur_gpu) != last_cur_gpu_) {
    const std::size_t src = static_cast<std::size_t>(base_ + (cur_gpu ? 5 : 4));
    for (std::size_t i = 0; i < n; ++i) {
      double* row = obs_.features.data() + i * w;
      row[base_ + 6] = row[src];
    }
    last_cur_gpu_ = cur_gpu ? 1 : 0;
  }

  // Ready bit + action lists, rescanned for every row: under a
  // shard-scoped view a descendant can become ready globally without the
  // scoped seed lists changing.
  obs_.ready_positions.clear();
  obs_.ready_tasks.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const dag::TaskId t = obs_.window.nodes[i];
    double* row = obs_.features.data() + i * w;
    if (engine.is_ready(t)) {
      row[base_ + 0] = 1.0;
      obs_.ready_positions.push_back(i);
      obs_.ready_tasks.push_back(t);
    } else {
      row[base_ + 0] = 0.0;
    }
  }

  // Running columns: O(R) writes against the window index instead of the
  // full encoder's O(n·R) scan. Values match bitwise (same expressions).
  const double now = engine.now();
  for (const auto& info : engine.running()) {
    const std::size_t pos = obs_.window.position_of(info.task);
    if (pos == dag::Window::npos) continue;
    double* row = obs_.features.data() + pos * w;
    row[base_ + 1] = 1.0;
    row[base_ + 2] = std::max(0.0, info.expected_finish - now) / time_scale_;
    row[base_ + 3] =
        engine.platform().type(info.resource) == sim::ResourceType::kGpu
            ? 1.0
            : 0.0;
    running_rows_.push_back(pos);
  }

  // Resource summary: identical arithmetic to StateEncoder::encode.
  const auto& platform = engine.platform();
  if (obs_.resource_state.rows() != 1) {
    obs_.resource_state =
        tensor::Tensor(1, StateEncoder::kResourceFeatureWidth);
  }
  double idle_cpu = 0.0;
  double idle_gpu = 0.0;
  double next_cpu = -1.0;
  double next_gpu = -1.0;
  double ncpu = 0.0;
  double ngpu = 0.0;
  for (const sim::ResourceId r : engine.resources()) {
    const bool gpu = platform.type(r) == sim::ResourceType::kGpu;
    (gpu ? ngpu : ncpu) += 1.0;
    if (engine.is_idle(r)) (gpu ? idle_gpu : idle_cpu) += 1.0;
    const double avail = engine.expected_available_at(r) - now;
    double& next = gpu ? next_gpu : next_cpu;
    if (next < 0.0 || avail < next) next = avail;
  }
  const double total = ncpu + ngpu;
  obs_.resource_state[0] = cur_gpu ? 1.0 : 0.0;
  obs_.resource_state[1] = ncpu > 0.0 ? idle_cpu / ncpu : 0.0;
  obs_.resource_state[2] = ngpu > 0.0 ? idle_gpu / ngpu : 0.0;
  obs_.resource_state[3] = next_cpu >= 0.0 ? next_cpu / time_scale_ : 1.0;
  obs_.resource_state[4] = next_gpu >= 0.0 ? next_gpu / time_scale_ : 1.0;
  obs_.resource_state[5] = ncpu / total;
  obs_.resource_state[6] = ngpu / total;
  obs_.resource_state[7] =
      n > 0 ? static_cast<double>(obs_.ready_tasks.size()) /
                  static_cast<double>(n)
            : 0.0;
  return obs_;
}

void IncrementalEncoder::rebuild_topology() {
  ++rebuilds_;
  dag::Window w = dag::extract_window(*graph_, seeds_scratch_, window_);
  const std::size_t n = w.size();
  // Â depends only on the node count and the index-pair edge list; an
  // identical edge set over the same count yields the same matrix.
  const bool same_ahat = valid_ && n == obs_.window.size() &&
                         w.edges == obs_.window.edges;
  obs_.window = std::move(w);
  if (same_ahat) {
    ++ahat_reuses_;
  } else {
    nn::normalized_adjacency_csr(n, obs_.window.edges, obs_.ahat_csr);
  }
  const std::size_t width = static_cast<std::size_t>(width_);
  if (obs_.features.rows() != n || obs_.features.cols() != width) {
    obs_.features = tensor::Tensor(n, width);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(obs_.features.data() + i * width,
                base_rows_.data() +
                    static_cast<std::size_t>(obs_.window.nodes[i]) * width,
                width * sizeof(double));
  }
  running_rows_.clear();
  seeds_ = seeds_scratch_;
  valid_ = true;
  last_cur_gpu_ = -1;  // base rows carry a zero column; force the refresh
}

}  // namespace readys::rl
