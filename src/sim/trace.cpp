#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace readys::sim {

double Trace::makespan() const noexcept {
  double m = 0.0;
  for (const auto& e : entries_) m = std::max(m, e.finish);
  return m;
}

std::vector<double> Trace::utilization(const Platform& platform) const {
  std::vector<double> busy(static_cast<std::size_t>(platform.size()), 0.0);
  for (const auto& e : entries_) {
    busy[static_cast<std::size_t>(e.resource)] += e.finish - e.start;
  }
  const double total = makespan();
  if (total > 0.0) {
    for (auto& b : busy) b /= total;
  }
  return busy;
}

std::string Trace::validate(const dag::TaskGraph& graph,
                            const Platform& platform) const {
  std::ostringstream err;
  // Small tolerance: completion times are sums of doubles.
  constexpr double kEps = 1e-9;

  if (entries_.size() != graph.num_tasks()) {
    err << "trace has " << entries_.size() << " entries for "
        << graph.num_tasks() << " tasks";
    return err.str();
  }
  std::vector<const TraceEntry*> by_task(graph.num_tasks(), nullptr);
  for (const auto& e : entries_) {
    if (e.task >= graph.num_tasks()) {
      err << "entry references unknown task " << e.task;
      return err.str();
    }
    if (e.resource < 0 || e.resource >= platform.size()) {
      err << "task " << e.task << " ran on unknown resource " << e.resource;
      return err.str();
    }
    if (e.finish + kEps < e.start) {
      err << "task " << e.task << " finishes before it starts";
      return err.str();
    }
    if (by_task[e.task] != nullptr) {
      err << "task " << e.task << " executed twice";
      return err.str();
    }
    by_task[e.task] = &e;
  }
  // Dependencies.
  for (dag::TaskId t = 0; t < graph.num_tasks(); ++t) {
    for (dag::TaskId p : graph.predecessors(t)) {
      if (by_task[t]->start + kEps < by_task[p]->finish) {
        err << "task " << t << " starts at " << by_task[t]->start
            << " before predecessor " << p << " finishes at "
            << by_task[p]->finish;
        return err.str();
      }
    }
  }
  // Resource exclusivity: sort each resource's entries by (start,
  // finish). Ordering ties by finish puts a zero-length task ahead of a
  // longer one starting at the same instant; by start alone the longer
  // one could sort first and the pair read as an overlap.
  std::vector<std::vector<const TraceEntry*>> per_resource(
      static_cast<std::size_t>(platform.size()));
  for (const auto& e : entries_) {
    per_resource[static_cast<std::size_t>(e.resource)].push_back(&e);
  }
  for (auto& list : per_resource) {
    std::sort(list.begin(), list.end(),
              [](const TraceEntry* a, const TraceEntry* b) {
                return a->start != b->start ? a->start < b->start
                                            : a->finish < b->finish;
              });
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i]->start + kEps < list[i - 1]->finish) {
        err << "resource " << list[i]->resource << " overlaps tasks "
            << list[i - 1]->task << " and " << list[i]->task;
        return err.str();
      }
    }
  }
  return {};
}

}  // namespace readys::sim
