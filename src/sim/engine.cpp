#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace readys::sim {

namespace {

/// Salt for the fault stream so it is independent of the noise stream
/// seeded from the same value.
constexpr std::uint64_t kFaultSeedSalt = 0xFA171E5D00DAD5ULL;

// Heap comparator: a sorts after b when it fires later, ties broken by
// insertion sequence. std::push_heap/pop_heap build max-heaps, so this
// ordering makes the *earliest* event sit at events_.front().
bool event_after(double ta, std::uint64_t sa, double tb,
                 std::uint64_t sb) noexcept {
  if (ta != tb) return ta > tb;
  return sa > sb;
}

}  // namespace

SimEngine::SimEngine(const dag::TaskGraph& graph, const Platform& platform,
                     const CostModel& costs, double sigma, std::uint64_t seed)
    : graph_(&graph),
      platform_(platform),
      costs_(costs),
      noise_(sigma),
      rng_(seed) {
  if (costs.num_kernels() < graph.num_kernel_types()) {
    throw std::invalid_argument(
        "SimEngine: cost model does not cover every kernel type");
  }
  // Flatten the cost model into a (kernel x resource) lookup so the
  // scheduler inner loops pay one multiply-add per query. Graph,
  // platform and costs are fixed for the engine's lifetime, so this
  // survives reset().
  const auto n_res = static_cast<std::size_t>(platform_.size());
  duration_table_.resize(static_cast<std::size_t>(costs_.num_kernels()) *
                         n_res);
  for (int k = 0; k < costs_.num_kernels(); ++k) {
    for (ResourceId r = 0; r < platform_.size(); ++r) {
      duration_table_[static_cast<std::size_t>(k) * n_res +
                      static_cast<std::size_t>(r)] =
          costs_.expected(k, platform_.type(r));
    }
  }
  reset(seed);
}

SimEngine::SimEngine(const dag::TaskGraph& graph, const Platform& platform,
                     const CostModel& costs, const CommModel& comm,
                     double sigma, std::uint64_t seed)
    : SimEngine(graph, platform, costs, sigma, seed) {
  if (!comm.is_free()) comm_ = comm;
}

SimEngine::SimEngine(const dag::TaskGraph& graph, const Platform& platform,
                     const CostModel& costs, const FaultModel& faults,
                     double sigma, std::uint64_t seed)
    : SimEngine(graph, platform, costs, sigma, seed) {
  faults.validate();
  fault_ = faults;
  fault_enabled_ = faults.enabled();
  // The delegated constructor reset() ran without the fault schedule;
  // redo it so the initial outage/slowdown arrivals are in the heap.
  if (fault_enabled_) reset(seed);
}

SimEngine::SimEngine(const dag::TaskGraph& graph, const Platform& platform,
                     const CostModel& costs, const CommModel& comm,
                     const FaultModel& faults, double sigma,
                     std::uint64_t seed)
    : SimEngine(graph, platform, costs, faults, sigma, seed) {
  if (!comm.is_free()) comm_ = comm;
}

void SimEngine::reset(std::uint64_t seed) {
  if (obs::Telemetry* t_obs = obs::telemetry()) t_obs->sim_episodes.add();
  rng_ = util::Rng(seed);
  now_ = 0.0;
  completed_ = 0;
  started_ = 0;
  outages_ = 0;
  recoveries_ = 0;
  lost_executions_ = 0;
  event_seq_ = 0;
  const std::size_t n = graph_->num_tasks();
  const auto n_res = static_cast<std::size_t>(platform_.size());
  missing_preds_.assign(n, 0);
  done_.assign(n, false);
  ready_.clear();
  in_ready_.assign(n, 0);
  ready_log_.clear();
  ready_log_.reserve(n);
  freed_log_.clear();
  freed_log_.reserve(n);
  running_.clear();
  events_.clear();
  resource_task_.assign(n_res, dag::kInvalidTask);
  resource_expected_finish_.assign(
      n_res, std::numeric_limits<double>::quiet_NaN());
  resource_up_.assign(n_res, 1);
  speed_factor_.assign(n_res, 1.0);
  producer_of_.assign(n, -1);
  trace_.clear();
  for (dag::TaskId t = 0; t < n; ++t) {
    missing_preds_[t] = graph_->in_degree(t);
    if (missing_preds_[t] == 0) {
      ready_.push_back(t);  // ascending: t is appended in id order
      in_ready_[t] = 1;
      ready_log_.push_back(t);
    }
  }
  if (fault_enabled_) {
    fault_rng_ = util::Rng(seed ^ kFaultSeedSalt);
    for (ResourceId r = 0; r < platform_.size(); ++r) {
      if (fault_.outage_rate > 0.0) {
        push_event(FaultModel::sample_gap(fault_.outage_rate, fault_rng_),
                   dag::kInvalidTask, r, EventKind::kOutage);
      }
      if (fault_.slowdown_rate > 0.0) {
        push_event(FaultModel::sample_gap(fault_.slowdown_rate, fault_rng_),
                   dag::kInvalidTask, r, EventKind::kSlowdownBegin);
      }
    }
  }
}

std::vector<ResourceId> SimEngine::idle_resources() const {
  std::vector<ResourceId> out;
  for (ResourceId r = 0; r < platform_.size(); ++r) {
    if (is_idle(r)) out.push_back(r);
  }
  return out;
}

int SimEngine::num_up() const noexcept {
  int up = 0;
  for (const std::uint8_t u : resource_up_) up += u != 0;
  return up;
}

double SimEngine::expected_input_delay(dag::TaskId t, ResourceId r) const {
  if (!comm_) return 0.0;
  return comm_->input_delay(*graph_, t, platform_, producer_of_, r);
}

double SimEngine::expected_available_at(ResourceId r) const {
  if (fault_enabled_ && !is_up(r)) {
    return std::numeric_limits<double>::infinity();
  }
  const dag::TaskId t = running_on(r);
  const double ef = resource_expected_finish_[static_cast<std::size_t>(r)];
  if (t == dag::kInvalidTask) {
    if (!std::isnan(ef)) {
      throw std::logic_error(
          "SimEngine::expected_available_at: idle resource has a pending "
          "expected finish (state corruption)");
    }
    return now_;
  }
  if (std::isnan(ef)) {
    throw std::logic_error(
        "SimEngine::expected_available_at: busy resource has no expected "
        "finish (state corruption)");
  }
  return std::max(now_, ef);
}

void SimEngine::insert_ready(dag::TaskId t) {
  ready_.insert(std::lower_bound(ready_.begin(), ready_.end(), t), t);
  in_ready_[t] = 1;
  ready_log_.push_back(t);
}

std::uint64_t SimEngine::push_event(double time, dag::TaskId task,
                                    ResourceId r, EventKind kind) {
  const std::uint64_t seq = event_seq_++;
  events_.push_back({time, seq, task, r, kind});
  std::push_heap(events_.begin(), events_.end(),
                 [](const Event& a, const Event& b) {
                   return event_after(a.time, a.seq, b.time, b.seq);
                 });
  return seq;
}

void SimEngine::start(dag::TaskId t, ResourceId r) {
  if (r < 0 || r >= platform_.size()) {
    throw std::logic_error("SimEngine::start: invalid resource");
  }
  if (fault_enabled_ && !is_up(r)) {
    throw std::logic_error("SimEngine::start: resource is down");
  }
  if (!is_idle(r)) {
    throw std::logic_error("SimEngine::start: resource is busy");
  }
  if (!is_ready(t)) {
    throw std::logic_error("SimEngine::start: task is not ready");
  }
  ready_.erase(std::lower_bound(ready_.begin(), ready_.end(), t));
  in_ready_[t] = 0;

  const double expected = expected_duration(t, r);
  const double actual = noise_.sample(expected, rng_);
  // Input shipping (if modeled) happens before compute; the transfer
  // itself is deterministic.
  const double shipping = expected_input_delay(t, r);
  // Independent task-failure channel: the execution occupies the
  // resource for its full duration, then the result is lost.
  const bool fails = fault_enabled_ && fault_.task_failure_prob > 0.0 &&
                     fault_rng_.uniform() < fault_.task_failure_prob;
  RunningInfo info;
  info.task = t;
  info.resource = r;
  info.start = now_;
  info.actual_finish = now_ + shipping + actual;
  info.expected_finish = now_ + shipping + expected;
  info.seq = push_event(info.actual_finish, t, r,
                        fails ? EventKind::kFail : EventKind::kFinish);
  running_.push_back(info);
  resource_task_[static_cast<std::size_t>(r)] = t;
  resource_expected_finish_[static_cast<std::size_t>(r)] =
      info.expected_finish;
  ++started_;
  if (obs::Telemetry* t_obs = obs::telemetry()) t_obs->sim_tasks_started.add();
}

void SimEngine::complete(const RunningInfo& info) {
  resource_task_[static_cast<std::size_t>(info.resource)] = dag::kInvalidTask;
  resource_expected_finish_[static_cast<std::size_t>(info.resource)] =
      std::numeric_limits<double>::quiet_NaN();
  freed_log_.push_back(info.resource);
  producer_of_[info.task] = info.resource;
  done_[info.task] = true;
  ++completed_;
  trace_.add({info.task, info.resource, info.start, info.actual_finish});
  for (dag::TaskId s : graph_->successors(info.task)) {
    if (--missing_preds_[s] == 0) insert_ready(s);
  }
}

void SimEngine::kill_running(ResourceId r) {
  auto it = std::find_if(
      running_.begin(), running_.end(),
      [r](const RunningInfo& info) { return info.resource == r; });
  if (it == running_.end()) return;
  const dag::TaskId task = it->task;
  running_.erase(it);  // preserves start order for running()
  resource_task_[static_cast<std::size_t>(r)] = dag::kInvalidTask;
  resource_expected_finish_[static_cast<std::size_t>(r)] =
      std::numeric_limits<double>::quiet_NaN();
  // The in-flight work is lost; the task becomes ready again. Its stale
  // completion event stays in the heap and is dropped on pop (the seq no
  // longer matches any running entry).
  insert_ready(task);
  ++lost_executions_;
}

bool SimEngine::outage_would_strand(ResourceId r) const {
  if (fault_.min_survivors_per_type <= 0) return false;
  const ResourceType type = platform_.type(r);
  int up_of_type = 0;
  for (ResourceId o = 0; o < platform_.size(); ++o) {
    if (platform_.type(o) == type && is_up(o)) ++up_of_type;
  }
  return up_of_type <= fault_.min_survivors_per_type;
}

void SimEngine::dispatch(const Event& ev, bool& observable) {
  switch (ev.kind) {
    case EventKind::kFinish:
    case EventKind::kFail: {
      // running_ holds at most one entry per resource, so this scan is
      // O(P). Matching on (task, seq) drops events whose execution was
      // killed by an outage after the event was scheduled.
      auto it = std::find_if(running_.begin(), running_.end(),
                             [&ev](const RunningInfo& info) {
                               return info.task == ev.task &&
                                      info.seq == ev.seq;
                             });
      if (it == running_.end()) {
        if (!fault_enabled_) {
          throw std::logic_error(
              "SimEngine::complete: event for a task that is not running "
              "(state corruption)");
        }
        return;  // stale: the execution was killed mid-flight
      }
      const RunningInfo info = *it;
      running_.erase(it);  // preserves start order for running()
      if (ev.kind == EventKind::kFinish) {
        complete(info);
      } else {
        // The execution ran to its end, then failed: free the resource,
        // discard the result, re-ready the task.
        resource_task_[static_cast<std::size_t>(info.resource)] =
            dag::kInvalidTask;
        resource_expected_finish_[static_cast<std::size_t>(info.resource)] =
            std::numeric_limits<double>::quiet_NaN();
        freed_log_.push_back(info.resource);
        insert_ready(info.task);
        ++lost_executions_;
      }
      observable = true;
      return;
    }
    case EventKind::kOutage: {
      if (!is_up(ev.resource)) return;  // defensive: already down
      if (outage_would_strand(ev.resource)) {
        // Survivor guard: suppress this outage and re-sample the arrival
        // so liveness is preserved (>= min survivors per type stay up).
        push_event(now_ + FaultModel::sample_gap(fault_.outage_rate,
                                                 fault_rng_),
                   dag::kInvalidTask, ev.resource, EventKind::kOutage);
        return;
      }
      resource_up_[static_cast<std::size_t>(ev.resource)] = 0;
      ++outages_;
      kill_running(ev.resource);
      if (fault_.mean_downtime > 0.0) {
        push_event(now_ + FaultModel::sample_duration(fault_.mean_downtime,
                                                      fault_rng_),
                   dag::kInvalidTask, ev.resource, EventKind::kRecovery);
      }
      observable = true;
      return;
    }
    case EventKind::kRecovery: {
      resource_up_[static_cast<std::size_t>(ev.resource)] = 1;
      ++recoveries_;
      push_event(
          now_ + FaultModel::sample_gap(fault_.outage_rate, fault_rng_),
          dag::kInvalidTask, ev.resource, EventKind::kOutage);
      observable = true;
      return;
    }
    case EventKind::kSlowdownBegin: {
      speed_factor_[static_cast<std::size_t>(ev.resource)] =
          fault_.slowdown_factor;
      push_event(now_ + FaultModel::sample_duration(fault_.mean_slowdown,
                                                    fault_rng_),
                 dag::kInvalidTask, ev.resource, EventKind::kSlowdownEnd);
      observable = true;
      return;
    }
    case EventKind::kSlowdownEnd: {
      speed_factor_[static_cast<std::size_t>(ev.resource)] = 1.0;
      push_event(
          now_ + FaultModel::sample_gap(fault_.slowdown_rate, fault_rng_),
          dag::kInvalidTask, ev.resource, EventKind::kSlowdownBegin);
      observable = true;
      return;
    }
  }
}

bool SimEngine::advance() {
  if (obs::Telemetry* t_obs = obs::telemetry()) t_obs->sim_events.add();
  const auto later = [](const Event& a, const Event& b) {
    return event_after(a.time, a.seq, b.time, b.seq);
  };
  while (!events_.empty()) {
    now_ = events_.front().time;
    // Process every event firing at this instant (ties are common when
    // sigma == 0); equal times pop in insertion order. A stale
    // completion (its execution was killed) changes nothing observable,
    // in which case the clock keeps advancing to the next instant.
    bool observable = false;
    while (!events_.empty() && events_.front().time <= now_) {
      std::pop_heap(events_.begin(), events_.end(), later);
      const Event ev = events_.back();
      events_.pop_back();
      dispatch(ev, observable);
    }
    if (observable) return true;
  }
  return false;
}

}  // namespace readys::sim
