#include "sim/simulator.hpp"

#include <stdexcept>

#include "obs/span.hpp"

namespace readys::sim {

Simulator::Simulator(const dag::TaskGraph& graph, const Platform& platform,
                     const CostModel& costs, Options options)
    : graph_(&graph),
      platform_(platform),
      costs_(costs),
      options_(options) {}

void advance_or_throw(SimEngine& engine) {
  if (engine.fault_enabled() && !engine.any_running() &&
      engine.num_up() == 0 && engine.faults().mean_downtime <= 0.0) {
    // Fault events may keep firing (slowdown edges), but no resource can
    // ever come back: fail loudly instead of spinning.
    throw std::logic_error(
        "platform unrecoverable (every resource permanently down, tasks "
        "remain)");
  }
  if (!engine.advance()) {
    throw std::logic_error(
        "scheduling stalled (no task running, none assigned, tasks remain)");
  }
}

SimResult Simulator::run(Scheduler& scheduler) {
  obs::Span span("sim/episode", "sim");
  const CommModel comm =
      options_.comm.has_value() ? *options_.comm : CommModel::free();
  const FaultModel faults =
      options_.faults.has_value() ? *options_.faults : FaultModel::none();
  SimEngine engine(*graph_, platform_, costs_, comm, faults, options_.sigma,
                   options_.seed);
  scheduler.reset(engine);

  SimResult result;
  while (!engine.finished()) {
    ++result.decision_instants;
    // Let the scheduler fill idle resources; it is re-invoked until it
    // declines so single-assignment schedulers compose naturally.
    for (;;) {
      const auto assignments = scheduler.decide(engine);
      if (assignments.empty()) break;
      for (const auto& a : assignments) {
        engine.start(a.task, a.resource);
      }
    }
    if (engine.finished()) break;
    advance_or_throw(engine);
  }
  result.makespan = engine.makespan();
  result.trace = engine.trace();
  return result;
}

double simulate_makespan(const dag::TaskGraph& graph, const Platform& platform,
                         const CostModel& costs, Scheduler& scheduler,
                         double sigma, std::uint64_t seed) {
  Simulator::Options options;
  options.sigma = sigma;
  options.seed = seed;
  Simulator sim(graph, platform, costs, options);
  return sim.run(scheduler).makespan;
}

}  // namespace readys::sim
