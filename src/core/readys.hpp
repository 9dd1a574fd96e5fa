#pragma once

/// \file readys.hpp
/// Umbrella header: the full public API of the READYS reproduction.
///
/// Quickstart:
/// \code
///   using namespace readys;
///   auto graph    = core::make_graph(core::App::kCholesky, 8);
///   auto costs    = core::make_costs(core::App::kCholesky);
///   auto platform = sim::Platform::hybrid(2, 2);
///
///   rl::ReadysAgent agent(graph.num_kernel_types(), rl::AgentConfig{});
///   agent.train(graph, platform, costs, {.episodes = 300, .sigma = 0.2});
///
///   rl::ReadysScheduler policy(agent.net(), agent.config().window,
///                              rl::ReadysOptions{});
///   double mk = sim::simulate_makespan(graph, platform, costs, policy,
///                                      /*sigma=*/0.2, /*seed=*/42);
/// \endcode

#include "cluster/heartbeat.hpp"
#include "cluster/partition.hpp"
#include "cluster/register.hpp"
#include "cluster/shard_sched.hpp"
#include "core/apps.hpp"
#include "core/evaluation.hpp"
#include "core/run_config.hpp"
#include "dag/cholesky.hpp"
#include "dag/dot_export.hpp"
#include "dag/features.hpp"
#include "dag/lu.hpp"
#include "dag/qr.hpp"
#include "dag/random_dag.hpp"
#include "dag/synthetic.hpp"
#include "dag/task_graph.hpp"
#include "dag/window.hpp"
#include "nn/gcn.hpp"
#include "obs/obs.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "rl/a2c.hpp"
#include "rl/ppo.hpp"
#include "rl/agent.hpp"
#include "rl/checkpoint.hpp"
#include "rl/config.hpp"
#include "rl/env.hpp"
#include "rl/inference.hpp"
#include "rl/policy_net.hpp"
#include "rl/readys_scheduler.hpp"
#include "rl/state_encoder.hpp"
#include "rl/train_loop.hpp"
#include "rl/vec_env.hpp"
#include "sched/batch_mode.hpp"
#include "sched/critical_path.hpp"
#include "sched/greedy_eft.hpp"
#include "sched/heft.hpp"
#include "sched/mct.hpp"
#include "sched/random_sched.hpp"
#include "sched/scheduler.hpp"
#include "serve/load_gen.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "sim/comm_model.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "sim/noise.hpp"
#include "sim/platform.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/trace_export.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
