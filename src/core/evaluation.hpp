#pragma once

#include <functional>
#include <memory>
#include <string>

#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace readys::core {

/// Builds an independent scheduler instance for one evaluation run;
/// `seed` individualizes any internal randomness (the READYS processor
/// draw, the random baseline). Stateless schedulers can ignore it.
using SchedulerFactory =
    std::function<std::unique_ptr<sim::Scheduler>(std::uint64_t seed)>;

/// Runs `runs` independent executions (noise seeds seed_base, seed_base+1,
/// ...) and returns the makespans. When `pool` is non-null the runs are
/// distributed across its workers (each run gets its own engine and
/// scheduler instance, so this is safe by construction).
std::vector<double> evaluate_makespans(
    const dag::TaskGraph& graph, const sim::Platform& platform,
    const sim::CostModel& costs, const SchedulerFactory& factory,
    double sigma, int runs, std::uint64_t seed_base,
    util::ThreadPool* pool = nullptr);

/// As above, but from a full Simulator::Options base — run i executes
/// with seed `base.seed + i` and everything else (sigma, communication
/// model, fault model) carried over unchanged. This is how the
/// fault-injection benchmarks evaluate schedulers under outages.
std::vector<double> evaluate_makespans(
    const dag::TaskGraph& graph, const sim::Platform& platform,
    const sim::CostModel& costs, const SchedulerFactory& factory,
    const sim::Simulator::Options& base, int runs,
    util::ThreadPool* pool = nullptr);

/// Evaluation factory for any sched::registry() name: run i's seed goes
/// into SchedulerConfig::seed. Throws (at call time) on unknown names.
SchedulerFactory registry_factory(const std::string& name);

/// Factories for the library's reference schedulers; shorthands for
/// registry_factory("heft") etc.
SchedulerFactory heft_factory();
SchedulerFactory mct_factory();
SchedulerFactory random_factory();
SchedulerFactory greedy_eft_factory();
SchedulerFactory critical_path_factory();

}  // namespace readys::core
