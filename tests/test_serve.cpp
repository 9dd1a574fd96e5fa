// DecisionService behavior suite: bounded admission + shedding,
// deterministic multi-tenant completion (pump mode and worker threads),
// deadline degradation to one-shot MCT, transient-fault retry with
// eventual quarantine, and the drain / shutdown / abort lifecycles,
// including submitter threads racing abort and drain (aimed at the tsan
// preset).
// The bit-identical poison-session isolation proof lives in
// tests/chaos/test_chaos_poison_session.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/readys.hpp"

namespace rc = readys::core;
namespace rr = readys::rl;
namespace rv = readys::serve;
namespace rs = readys::sim;

namespace {

rr::AgentConfig small_agent() {
  rr::AgentConfig cfg;
  cfg.hidden = 8;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.seed = 3;
  return cfg;
}

rr::PolicyNet small_net(const rr::AgentConfig& cfg) {
  return rr::PolicyNet(rr::StateEncoder::node_feature_width(4),
                       rr::StateEncoder::kResourceFeatureWidth, cfg);
}

rv::ServiceConfig pump_config() {
  rv::ServiceConfig sc;
  sc.workers = 0;  // manual pump mode: fully deterministic rounds
  sc.record_actions = true;
  return sc;
}

rv::SessionSpec spec_for(readys::core::App app, int tiles,
                         std::uint64_t seed) {
  rv::SessionSpec s;
  s.app = app;
  s.tiles = tiles;
  s.seed = seed;
  s.deadline_us = -1.0;  // timing-independent decisions
  return s;
}

/// Pumps until the service has nothing left to do.
void pump_dry(rv::DecisionService& svc) {
  for (int guard = 0; guard < 100000; ++guard) {
    if (svc.pump() == 0 && svc.queue_depth() == 0) return;
  }
  FAIL() << "service did not drain in 100k rounds";
}

}  // namespace

TEST(Serve, AdmissionIsBoundedAndShedsWithReason) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc = pump_config();
  sc.queue_capacity = 2;
  rv::DecisionService svc(net, agent, sc);

  const auto a = svc.submit(spec_for(rc::App::kCholesky, 3, 1));
  const auto b = svc.submit(spec_for(rc::App::kCholesky, 3, 2));
  const auto c = svc.submit(spec_for(rc::App::kCholesky, 3, 3));
  EXPECT_TRUE(a.admitted);
  EXPECT_TRUE(b.admitted);
  EXPECT_FALSE(c.admitted);
  EXPECT_EQ(c.reason, "queue full");
  EXPECT_EQ(svc.counters().admitted, 2u);
  EXPECT_EQ(svc.counters().shed, 1u);
  EXPECT_EQ(svc.queue_depth(), 2u);

  // Shedding is not sticky: capacity freed by progress readmits.
  pump_dry(svc);
  const auto d = svc.submit(spec_for(rc::App::kCholesky, 3, 4));
  EXPECT_TRUE(d.admitted);
  svc.shutdown();
}

TEST(Serve, PumpModeCompletesMixedCatalogDeterministically) {
  const auto agent = small_agent();
  const auto net = small_net(agent);

  auto run_once = [&]() {
    rv::DecisionService svc(net, agent, pump_config());
    svc.submit(spec_for(rc::App::kCholesky, 4, 11));
    svc.submit(spec_for(rc::App::kLu, 3, 22));
    svc.submit(spec_for(rc::App::kQr, 3, 33));
    pump_dry(svc);
    auto results = svc.results();
    svc.shutdown();
    return results;
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].state, rv::SessionState::kCompleted);
    EXPECT_GT(first[i].makespan, 0.0);
    EXPECT_GT(first[i].heft_reference, 0.0);
    EXPECT_GT(first[i].decisions, 0u);
    // Bit-identical across runs: same ids, same traces, same makespans.
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].actions, second[i].actions);
    EXPECT_EQ(first[i].makespan, second[i].makespan);
  }
}

TEST(Serve, WorkerThreadsCompleteEverythingOnShutdown) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 2;
  sc.max_active = 4;
  sc.watchdog_period_ms = 50.0;
  rv::DecisionService svc(net, agent, sc);

  const int kSessions = 12;
  int admitted = 0;
  for (int i = 0; i < kSessions; ++i) {
    if (svc.submit(spec_for(rc::App::kCholesky, 3, 100 + i)).admitted) {
      ++admitted;
    }
  }
  svc.shutdown();  // drain + wait: nothing in flight afterwards

  const auto c = svc.counters();
  EXPECT_EQ(c.admitted, static_cast<std::uint64_t>(admitted));
  EXPECT_EQ(c.completed, static_cast<std::uint64_t>(admitted));
  EXPECT_EQ(c.quarantined, 0u);
  EXPECT_EQ(c.aborted, 0u);
  EXPECT_EQ(svc.results().size(), static_cast<std::size_t>(admitted));
  EXPECT_FALSE(svc.stalled());

  // A drained service sheds new work with the right reason.
  const auto late = svc.submit(spec_for(rc::App::kCholesky, 3, 999));
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.reason, "stopped");
}

TEST(Serve, DeadlineBlownDegradesToMctAndStillCompletes) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc = pump_config();
  rv::DecisionService svc(net, agent, sc);

  rv::SessionSpec spec = spec_for(rc::App::kCholesky, 4, 7);
  spec.deadline_us = 1e-6;  // unmeetable: every decision degrades
  svc.submit(spec);
  pump_dry(svc);

  const auto results = svc.results();
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  EXPECT_EQ(r.state, rv::SessionState::kCompleted);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.decisions, 0u);
  // Every decision blew the budget and was answered by one-shot MCT.
  EXPECT_EQ(r.timeouts, r.decisions);
  EXPECT_EQ(r.fallbacks, r.decisions);
  EXPECT_EQ(svc.counters().timeouts, r.timeouts);
  EXPECT_EQ(svc.counters().fallbacks, r.fallbacks);
  svc.shutdown();
}

TEST(Serve, PerSessionDeadlineOverridesServiceDefault) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc = pump_config();
  sc.deadline_us = 1e-6;  // service default: unmeetable
  rv::DecisionService svc(net, agent, sc);

  rv::SessionSpec opted_out = spec_for(rc::App::kCholesky, 3, 1);
  opted_out.deadline_us = -1.0;  // disables the deadline for this session
  rv::SessionSpec inherits = spec_for(rc::App::kCholesky, 3, 2);
  inherits.deadline_us = 0.0;  // inherits the unmeetable default
  const auto id_out = svc.submit(opted_out).id;
  svc.submit(inherits);
  pump_dry(svc);

  for (const auto& r : svc.results()) {
    EXPECT_EQ(r.state, rv::SessionState::kCompleted);
    if (r.id == id_out) {
      EXPECT_EQ(r.timeouts, 0u);
    } else {
      EXPECT_EQ(r.timeouts, r.decisions);
    }
  }
  svc.shutdown();
}

TEST(Serve, ZeroDeadlineDegradesEveryDecisionDeterministically) {
  // The deadline_us == 0 edge: a literal zero budget means every
  // decision degrades to one-shot MCT without the clock being consulted
  // — fully deterministic, unlike the 1e-6 "unmeetable but timed" case.
  const auto agent = small_agent();
  const auto net = small_net(agent);
  auto run = [&](std::uint64_t seed) {
    rv::ServiceConfig sc = pump_config();
    sc.deadline_us = 0.0;
    rv::DecisionService svc(net, agent, sc);
    auto direct = spec_for(rc::App::kCholesky, 4, seed);
    direct.deadline_us = 0.0;  // inherits the zero-budget default
    svc.submit(direct);
    auto inherit = spec_for(rc::App::kLu, 3, seed + 1);
    inherit.deadline_us = 0.0;
    svc.submit(inherit);
    pump_dry(svc);
    svc.shutdown();
    return svc.results();
  };
  const auto a = run(7);
  const auto b = run(7);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].state, rv::SessionState::kCompleted);
    EXPECT_GT(a[i].decisions, 0u);
    EXPECT_EQ(a[i].timeouts, a[i].decisions);
    EXPECT_EQ(a[i].fallbacks, a[i].decisions);
    // Bit-identical across runs: no wall-clock coupling anywhere.
    EXPECT_EQ(a[i].actions, b[i].actions);
  }
}

TEST(Serve, NegativeDeadlineOptsOutOfZeroBudgetDefault) {
  // spec.deadline_us < 0 must opt a session out even when the service
  // default is the always-degrade zero budget.
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc = pump_config();
  sc.deadline_us = 0.0;
  rv::DecisionService svc(net, agent, sc);
  rv::SessionSpec opted_out = spec_for(rc::App::kCholesky, 3, 1);
  opted_out.deadline_us = -1.0;
  const auto id_out = svc.submit(opted_out).id;
  rv::SessionSpec inherits = spec_for(rc::App::kCholesky, 3, 2);
  inherits.deadline_us = 0.0;  // inherits the zero-budget default
  svc.submit(inherits);
  pump_dry(svc);
  for (const auto& r : svc.results()) {
    EXPECT_EQ(r.state, rv::SessionState::kCompleted);
    if (r.id == id_out) {
      EXPECT_EQ(r.timeouts, 0u);
      EXPECT_EQ(r.fallbacks, 0u);
    } else {
      EXPECT_EQ(r.timeouts, r.decisions);
    }
  }
  svc.shutdown();
}

TEST(Serve, EnvFaultRetriesThenQuarantines) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc = pump_config();
  sc.max_retries = 2;
  sc.retry_backoff_ms = 0.0;  // immediate re-eligibility in pump mode
  rv::DecisionService svc(net, agent, sc);

  // Every resource dies almost immediately and permanently; the env
  // throws "platform unrecoverable" (a transient classification: the
  // cluster might recover on resubmission — here it never does).
  rv::SessionSpec spec = spec_for(rc::App::kCholesky, 4, 5);
  spec.faults.outage_rate = 1e6;
  spec.faults.mean_downtime = 0.0;
  spec.faults.min_survivors_per_type = 0;
  svc.submit(spec);
  pump_dry(svc);

  const auto results = svc.results();
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  EXPECT_EQ(r.state, rv::SessionState::kQuarantined);
  EXPECT_NE(r.error.find("env fault"), std::string::npos);
  EXPECT_NE(r.error.find("retries exhausted"), std::string::npos);
  EXPECT_EQ(r.attempts, 3);  // first run + 2 retries
  EXPECT_EQ(svc.counters().retries, 2u);
  EXPECT_EQ(svc.counters().quarantined, 1u);
  svc.shutdown();
}

TEST(Serve, TransientFaultDoesNotDisturbNeighbors) {
  const auto agent = small_agent();
  const auto net = small_net(agent);

  auto run_once = [&](bool with_faulty) {
    rv::DecisionService svc(net, agent, pump_config());
    svc.submit(spec_for(rc::App::kLu, 3, 41));
    if (with_faulty) {
      rv::SessionSpec bad = spec_for(rc::App::kCholesky, 4, 5);
      bad.faults.outage_rate = 1e6;
      bad.faults.mean_downtime = 0.0;
      bad.faults.min_survivors_per_type = 0;
      svc.submit(bad);
    }
    svc.submit(spec_for(rc::App::kQr, 3, 42));
    pump_dry(svc);
    auto results = svc.results();
    svc.shutdown();
    return results;
  };

  const auto with_bad = run_once(true);
  const auto without = run_once(false);
  ASSERT_EQ(with_bad.size(), 3u);
  ASSERT_EQ(without.size(), 2u);

  // The healthy sessions' traces are identical whether or not the
  // faulty tenant shared their batches.
  std::vector<rv::SessionResult> healthy;
  for (const auto& r : with_bad) {
    if (r.state == rv::SessionState::kCompleted) healthy.push_back(r);
  }
  ASSERT_EQ(healthy.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(healthy[i].actions, without[i].actions);
    EXPECT_EQ(healthy[i].makespan, without[i].makespan);
  }
}

TEST(Serve, AbortShutdownRetiresInFlightDeterministically) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::DecisionService svc(net, agent, pump_config());

  svc.submit(spec_for(rc::App::kCholesky, 4, 1));
  svc.submit(spec_for(rc::App::kCholesky, 4, 2));
  // A few rounds of progress, then the plug is pulled.
  for (int i = 0; i < 3; ++i) svc.pump();
  svc.abort_shutdown();

  const auto results = svc.results();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.state, rv::SessionState::kAborted);
    EXPECT_EQ(r.error, "service aborted");
  }
  EXPECT_EQ(svc.counters().aborted, 2u);
  EXPECT_TRUE(svc.idle());
  // Post-abort submissions shed as "stopped".
  EXPECT_EQ(svc.submit(spec_for(rc::App::kCholesky, 3, 9)).reason,
            "stopped");
}

TEST(Serve, DrainRejectsNewWorkButFinishesInFlight) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::DecisionService svc(net, agent, pump_config());

  svc.submit(spec_for(rc::App::kCholesky, 3, 1));
  svc.drain();
  const auto rejected = svc.submit(spec_for(rc::App::kCholesky, 3, 2));
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, "draining");

  pump_dry(svc);
  const auto results = svc.results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, rv::SessionState::kCompleted);
  svc.shutdown();
}

TEST(Serve, PumpThrowsWhenWorkersAreRunning) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 1;
  rv::DecisionService svc(net, agent, sc);
  EXPECT_THROW(svc.pump(), std::logic_error);
  svc.shutdown();
}

TEST(Serve, RejectsTurningIncrementalEncodingOff) {
  // The incremental encoder is the only encoder: the leftover flags
  // must not silently accept the removed full-encoder path.
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc = pump_config();
  sc.incremental_encoding = false;
  try {
    rv::DecisionService svc(net, agent, sc);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("incremental_encoding"),
              std::string::npos);
  }

  const auto graph = std::make_shared<const readys::dag::TaskGraph>(
      rc::make_graph(rc::App::kCholesky, 3));
  const auto spec = spec_for(rc::App::kCholesky, 3, 1);
  const auto platform = rs::Platform::hybrid(2, 2);
  EXPECT_THROW(rv::Session(1, spec, platform, graph, agent.window, 0, false),
               std::invalid_argument);
  const rv::Session session(1, spec, platform, graph, agent.window);
  EXPECT_GT(session.observation().num_actions(), 0u);
}

TEST(Serve, ResultsAreStableAcrossBatchWidths) {
  // Multiplexing width is an implementation knob, not a semantic one:
  // forward_batched matches forward bit-for-bit, so the same sessions
  // produce the same traces whether they share rounds or run alone.
  const auto agent = small_agent();
  const auto net = small_net(agent);

  auto run_width = [&](std::size_t width) {
    rv::ServiceConfig sc = pump_config();
    sc.max_active = width;
    rv::DecisionService svc(net, agent, sc);
    for (int i = 0; i < 4; ++i) {
      svc.submit(spec_for(rc::App::kCholesky, 3, 60 + i));
    }
    pump_dry(svc);
    auto results = svc.results();
    svc.shutdown();
    return results;
  };

  const auto wide = run_width(4);
  const auto narrow = run_width(1);
  ASSERT_EQ(wide.size(), narrow.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(wide[i].actions, narrow[i].actions);
    EXPECT_EQ(wide[i].makespan, narrow[i].makespan);
  }
}

TEST(Serve, ServiceAbortRacesSubmitters) {
  // Threads keep submitting while the main thread pulls the plug. Every
  // submission must resolve to exactly one disposition (completed,
  // aborted, or shed) — admissions and retirements must balance even
  // when abort lands mid-submit.
  rr::AgentConfig agent;
  agent.hidden = 8;
  agent.gcn_layers = 1;
  agent.window = 1;
  agent.seed = 3;
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4),
                    rr::StateEncoder::kResourceFeatureWidth, agent);

  for (int round = 0; round < 3; ++round) {
    rv::ServiceConfig sc;
    sc.workers = 2;
    sc.max_active = 2;
    sc.queue_capacity = 8;
    rv::DecisionService svc(net, agent, sc);

    std::atomic<std::uint64_t> admitted{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&svc, &admitted, t] {
        for (int i = 0; i < 16; ++i) {
          rv::SessionSpec spec;
          spec.tiles = 3;
          spec.seed = static_cast<std::uint64_t>(t * 100 + i);
          spec.deadline_us = -1.0;
          const auto a = svc.submit(spec);
          if (a.admitted) admitted.fetch_add(1, std::memory_order_relaxed);
          if (a.reason == "stopped") return;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
    svc.abort_shutdown();
    for (auto& s : submitters) s.join();

    const auto c = svc.counters();
    EXPECT_EQ(admitted.load(), c.admitted);
    EXPECT_EQ(c.completed + c.quarantined + c.aborted, c.admitted);
    EXPECT_EQ(svc.results().size(), static_cast<std::size_t>(c.admitted));
    EXPECT_TRUE(svc.idle());
  }
}

TEST(Serve, ServiceDrainRacesSubmitters) {
  rr::AgentConfig agent;
  agent.hidden = 8;
  agent.gcn_layers = 1;
  agent.window = 1;
  agent.seed = 3;
  rr::PolicyNet net(rr::StateEncoder::node_feature_width(4),
                    rr::StateEncoder::kResourceFeatureWidth, agent);

  rv::ServiceConfig sc;
  sc.workers = 2;
  sc.queue_capacity = 16;
  rv::DecisionService svc(net, agent, sc);

  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&svc, t] {
      for (int i = 0; i < 10; ++i) {
        rv::SessionSpec spec;
        spec.tiles = 3;
        spec.seed = static_cast<std::uint64_t>(t * 50 + i);
        spec.deadline_us = -1.0;
        svc.submit(spec);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.drain();
  for (auto& s : submitters) s.join();
  svc.wait_idle();

  // Everything admitted before the drain completed; nothing aborted.
  const auto c = svc.counters();
  EXPECT_EQ(c.completed, c.admitted);
  EXPECT_EQ(c.aborted, 0u);
  svc.shutdown();
}
