#include "core/evaluation.hpp"

#include "obs/obs.hpp"
#include "sched/scheduler.hpp"

namespace readys::core {

std::vector<double> evaluate_makespans(
    const dag::TaskGraph& graph, const sim::Platform& platform,
    const sim::CostModel& costs, const SchedulerFactory& factory,
    double sigma, int runs, std::uint64_t seed_base,
    util::ThreadPool* pool) {
  sim::Simulator::Options base;
  base.sigma = sigma;
  base.seed = seed_base;
  return evaluate_makespans(graph, platform, costs, factory, base, runs,
                            pool);
}

std::vector<double> evaluate_makespans(
    const dag::TaskGraph& graph, const sim::Platform& platform,
    const sim::CostModel& costs, const SchedulerFactory& factory,
    const sim::Simulator::Options& base, int runs,
    util::ThreadPool* pool) {
  obs::Span span("core/evaluate_makespans", "eval");
  if (obs::Telemetry* t = obs::telemetry()) {
    t->eval_runs.add(static_cast<std::uint64_t>(runs));
  }
  std::vector<double> out(static_cast<std::size_t>(runs), 0.0);
  auto run_one = [&](std::size_t i) {
    sim::Simulator::Options options = base;
    options.seed = base.seed + i;
    auto scheduler = factory(options.seed);
    sim::Simulator sim(graph, platform, costs, options);
    out[i] = sim.run(*scheduler).makespan;
  };
  if (pool != nullptr) {
    pool->parallel_for(out.size(), run_one);
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) run_one(i);
  }
  return out;
}

SchedulerFactory registry_factory(const std::string& name) {
  return [name](std::uint64_t seed) {
    sched::SchedulerConfig cfg;
    cfg.seed = seed;
    return sched::make_scheduler(name, cfg);
  };
}

SchedulerFactory heft_factory() { return registry_factory("heft"); }

SchedulerFactory mct_factory() { return registry_factory("mct"); }

SchedulerFactory random_factory() { return registry_factory("random"); }

SchedulerFactory greedy_eft_factory() { return registry_factory("greedy"); }

SchedulerFactory critical_path_factory() { return registry_factory("cp"); }

}  // namespace readys::core
