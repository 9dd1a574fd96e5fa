#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dag/cholesky.hpp"
#include "obs/obs.hpp"
#include "rl/agent.hpp"
#include "rl/readys_scheduler.hpp"
#include "sched/guarded.hpp"
#include "sched/mct.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace rd = readys::dag;
namespace ro = readys::obs;
namespace rr = readys::rl;
namespace rs = readys::sim;
namespace rx = readys::sched;

namespace {

/// Inner scheduler whose failure mode is programmable per decide() call.
/// kDelegate answers with a correct MCT decision, so interleaving modes
/// exercises the consecutive-strike counter.
class FaultyScheduler : public rs::Scheduler {
 public:
  enum class Mode { kDelegate, kThrow, kBogusResource, kDuplicateTask };

  explicit FaultyScheduler(std::vector<Mode> script)
      : script_(std::move(script)) {}

  void reset(const rs::EngineView& engine) override {
    if (throw_on_reset_) throw std::runtime_error("reset boom");
    calls_ = 0;
    inner_.reset(engine);
  }

  std::vector<rs::Assignment> decide(const rs::EngineView& engine) override {
    const Mode mode =
        script_.empty() ? Mode::kDelegate
                        : script_[std::min(calls_, script_.size() - 1)];
    ++calls_;
    switch (mode) {
      case Mode::kThrow:
        throw std::runtime_error("policy exploded");
      case Mode::kBogusResource: {
        // First ready task onto a resource that does not exist.
        for (readys::dag::TaskId t = 0; t < engine.graph().num_tasks(); ++t) {
          if (engine.is_ready(t)) {
            return {{t, static_cast<rs::ResourceId>(engine.platform().size() +
                                                    5)}};
          }
        }
        return {};
      }
      case Mode::kDuplicateTask: {
        for (readys::dag::TaskId t = 0; t < engine.graph().num_tasks(); ++t) {
          if (engine.is_ready(t)) return {{t, 0}, {t, 1}};
        }
        return {};
      }
      case Mode::kDelegate:
        break;
    }
    // One-shot reset + decide so the suggestion is always derived from
    // the current engine state — the guard's own fallback decisions
    // would desync a persistently-stateful MCT instance.
    inner_.reset(engine);
    return inner_.decide(engine);
  }

  std::string name() const override { return "faulty"; }

  void set_throw_on_reset(bool v) { throw_on_reset_ = v; }

 private:
  std::vector<Mode> script_;
  std::size_t calls_ = 0;
  bool throw_on_reset_ = false;
  rx::MctScheduler inner_;
};

using Mode = FaultyScheduler::Mode;

double mct_reference_makespan() {
  const auto g = rd::cholesky_graph(4);
  rx::MctScheduler mct;
  return rs::simulate_makespan(g, rs::Platform::hybrid(2, 2),
                               rs::CostModel::cholesky(), mct, 0.0, 1);
}

}  // namespace

TEST(Guarded, RegistryResolvesGuardedPrefix) {
  EXPECT_TRUE(rx::registry().contains("guarded:mct"));
  EXPECT_TRUE(rx::registry().contains("guarded:heft"));
  EXPECT_FALSE(rx::registry().contains("guarded:no-such-policy"));
  auto sched = rx::make_scheduler("guarded:mct");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->name(), "guarded(MCT)");
  // The prefix composes: a doubly-wrapped scheduler is legal (if silly).
  auto nested = rx::make_scheduler("guarded:guarded:mct");
  EXPECT_EQ(nested->name(), "guarded(guarded(MCT))");
  EXPECT_THROW(rx::make_scheduler("guarded:no-such-policy"),
               std::invalid_argument);
}

TEST(Guarded, WellBehavedInnerRunsWithoutFallback) {
  const auto g = rd::cholesky_graph(4);
  auto sched = rx::make_scheduler("guarded:mct");
  rs::Simulator sim(g, rs::Platform::hybrid(2, 2), rs::CostModel::cholesky(),
                    {0.0, 1});
  const auto result = sim.run(*sched);
  EXPECT_EQ(result.trace.validate(g, rs::Platform::hybrid(2, 2)), "");
  EXPECT_DOUBLE_EQ(result.makespan, mct_reference_makespan());
  auto* guarded = dynamic_cast<rx::GuardedScheduler*>(sched.get());
  ASSERT_NE(guarded, nullptr);
  EXPECT_EQ(guarded->fallback_decisions(), 0u);
  EXPECT_FALSE(guarded->degraded());
}

TEST(Guarded, ThrowingInnerCompletesEpisodeOnMctFallback) {
  const auto g = rd::cholesky_graph(4);
  const auto p = rs::Platform::hybrid(2, 2);
  rx::GuardedScheduler sched(
      std::make_unique<FaultyScheduler>(std::vector<Mode>{Mode::kThrow}));
  rs::Simulator sim(g, p, rs::CostModel::cholesky(), {0.0, 1});
  const auto result = sim.run(sched);
  EXPECT_EQ(result.trace.validate(g, p), "");
  EXPECT_EQ(result.trace.size(), g.num_tasks());
  EXPECT_GT(sched.fallback_decisions(), 0u);
  // Degraded quality is acceptable; a hung or invalid schedule is not.
  // (One-shot MCT re-derives each decision from current engine state, so
  // it does not reproduce a persistent MCT run's makespan exactly.)
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_NE(sched.last_fault().find("policy exploded"), std::string::npos);
}

TEST(Guarded, InvalidAssignmentsAreCaughtBeforeTheEngineSeesThem) {
  const auto g = rd::cholesky_graph(4);
  const auto p = rs::Platform::hybrid(2, 2);
  for (const Mode bad : {Mode::kBogusResource, Mode::kDuplicateTask}) {
    rx::GuardedScheduler sched(
        std::make_unique<FaultyScheduler>(std::vector<Mode>{bad}));
    rs::Simulator sim(g, p, rs::CostModel::cholesky(), {0.0, 1});
    const auto result = sim.run(sched);
    EXPECT_EQ(result.trace.validate(g, p), "");
    EXPECT_GT(sched.fallback_decisions(), 0u);
    EXPECT_NE(sched.last_fault().find("invalid batch"), std::string::npos);
  }
}

TEST(Guarded, ConsecutiveFailuresDegradePermanently) {
  const auto g = rd::cholesky_graph(4);
  const auto p = rs::Platform::hybrid(2, 2);
  rx::GuardedScheduler sched(
      std::make_unique<FaultyScheduler>(std::vector<Mode>{Mode::kThrow}),
      rx::GuardedScheduler::Options{/*max_strikes=*/2});
  rs::Simulator sim(g, p, rs::CostModel::cholesky(), {0.0, 1});
  const auto result = sim.run(sched);
  EXPECT_EQ(result.trace.validate(g, p), "");
  EXPECT_TRUE(sched.degraded());
}

TEST(Guarded, SuccessResetsTheStrikeCounter) {
  // Failures interleaved with good decisions never become "consecutive",
  // so the inner scheduler keeps being consulted.
  const auto g = rd::cholesky_graph(4);
  const auto p = rs::Platform::hybrid(2, 2);
  std::vector<Mode> script;
  for (int i = 0; i < 40; ++i) {
    script.push_back(i % 2 == 0 ? Mode::kThrow : Mode::kDelegate);
  }
  rx::GuardedScheduler sched(std::make_unique<FaultyScheduler>(script),
                             rx::GuardedScheduler::Options{/*max_strikes=*/2});
  rs::Simulator sim(g, p, rs::CostModel::cholesky(), {0.0, 1});
  const auto result = sim.run(sched);
  EXPECT_EQ(result.trace.validate(g, p), "");
  EXPECT_GT(sched.fallback_decisions(), 0u);
  EXPECT_FALSE(sched.degraded());
}

TEST(Guarded, InnerResetThrowingRoutesTheEpisodeToFallback) {
  const auto g = rd::cholesky_graph(4);
  const auto p = rs::Platform::hybrid(2, 2);
  auto inner = std::make_unique<FaultyScheduler>(std::vector<Mode>{});
  inner->set_throw_on_reset(true);
  rx::GuardedScheduler sched(std::move(inner));
  rs::Simulator sim(g, p, rs::CostModel::cholesky(), {0.0, 1});
  const auto result = sim.run(sched);
  EXPECT_EQ(result.trace.validate(g, p), "");
  EXPECT_EQ(result.trace.size(), g.num_tasks());
  EXPECT_GT(sched.fallback_decisions(), 0u);
}

TEST(Guarded, NanPolicyCompletesEpisodeViaFallbackWithMetric) {
  // The acceptance scenario: a READYS policy whose weights went NaN must
  // still finish the episode (on MCT quality) instead of crashing, and
  // every rescued decision must show up in sched.fallback_decisions.
  const auto g = rd::cholesky_graph(4);
  const auto p = rs::Platform::hybrid(2, 2);

  rr::AgentConfig cfg;
  cfg.hidden = 8;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.seed = 3;
  rr::ReadysAgent agent(4, cfg);
  // Poison every weight: the forward pass then yields NaN logits and the
  // scheduler throws from its finite-probability check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto& [name, var] : agent.net().named_parameters()) {
    auto& t = var.mutable_value();
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = nan;
  }

  const bool installed = ro::install(ro::TelemetryConfig{});
  const std::uint64_t before =
      ro::telemetry() ? ro::telemetry()->sched_fallbacks.total() : 0;

  rx::GuardedScheduler sched(std::make_unique<rr::ReadysScheduler>(
      agent.net(), cfg.window, rr::ReadysOptions{.greedy = true, .seed = 4}));
  rs::Simulator sim(g, p, rs::CostModel::cholesky(), {0.0, 1});
  const auto result = sim.run(sched);

  EXPECT_EQ(result.trace.validate(g, p), "");
  EXPECT_EQ(result.trace.size(), g.num_tasks());
  EXPECT_GT(sched.fallback_decisions(), 0u);
  EXPECT_NE(sched.last_fault().find("non-finite"), std::string::npos);
  if (ro::telemetry() != nullptr) {
    EXPECT_GT(ro::telemetry()->sched_fallbacks.total(), before);
  }
  if (installed) ro::shutdown();
}

// ---------------------------------------------------------------------
// Registry option syntax: guarded(budget_us=...,max_strikes=...):<inner>
// ---------------------------------------------------------------------

TEST(GuardedSpec, BudgetAndStrikesParseFromRegistryName) {
  auto sched = rx::make_scheduler("guarded(budget_us=500,max_strikes=2):mct");
  auto* guarded = dynamic_cast<rx::GuardedScheduler*>(sched.get());
  ASSERT_NE(guarded, nullptr);
  EXPECT_DOUBLE_EQ(guarded->options().decide_budget_ms, 0.5);
  EXPECT_EQ(guarded->options().max_strikes, 2);
  EXPECT_EQ(sched->name(), "guarded(MCT)");
}

TEST(GuardedSpec, BudgetMsVariantAndDefaults) {
  auto sched = rx::make_scheduler("guarded(budget_ms=3):heft");
  auto* guarded = dynamic_cast<rx::GuardedScheduler*>(sched.get());
  ASSERT_NE(guarded, nullptr);
  EXPECT_DOUBLE_EQ(guarded->options().decide_budget_ms, 3.0);
  EXPECT_EQ(guarded->options().max_strikes, rx::GuardedScheduler::Options{}.max_strikes);

  // The bare prefix keeps the all-default options.
  auto plain = rx::make_scheduler("guarded:mct");
  auto* plain_guarded = dynamic_cast<rx::GuardedScheduler*>(plain.get());
  ASSERT_NE(plain_guarded, nullptr);
  EXPECT_DOUBLE_EQ(plain_guarded->options().decide_budget_ms, 0.0);
}

TEST(GuardedSpec, OptionSyntaxComposesWithNesting) {
  auto sched = rx::make_scheduler("guarded(budget_ms=1):guarded:mct");
  auto* outer = dynamic_cast<rx::GuardedScheduler*>(sched.get());
  ASSERT_NE(outer, nullptr);
  EXPECT_DOUBLE_EQ(outer->options().decide_budget_ms, 1.0);
  EXPECT_EQ(sched->name(), "guarded(guarded(MCT))");
}

TEST(GuardedSpec, MalformedSpecsAreRejected) {
  // contains() answers false for malformed specs; make() names the
  // problem in the exception instead of silently defaulting.
  EXPECT_FALSE(rx::registry().contains("guarded(budget_us=500:mct"));
  EXPECT_FALSE(rx::registry().contains("guarded(budget_us=abc):mct"));
  EXPECT_FALSE(rx::registry().contains("guarded(unknown_knob=1):mct"));
  EXPECT_FALSE(rx::registry().contains("guarded(max_strikes=0):mct"));
  EXPECT_FALSE(rx::registry().contains("guarded(budget_us=1)mct"));
  EXPECT_FALSE(rx::registry().contains("guardedfoo"));
  EXPECT_THROW(rx::make_scheduler("guarded(budget_us=abc):mct"),
               std::invalid_argument);
  EXPECT_THROW(rx::make_scheduler("guarded(unknown_knob=1):mct"),
               std::invalid_argument);
  // A well-formed option list around an unknown inner still fails on
  // the inner, like the bare prefix does.
  EXPECT_FALSE(rx::registry().contains("guarded(budget_us=1):no-such"));
  EXPECT_THROW(rx::make_scheduler("guarded(budget_us=1):no-such"),
               std::invalid_argument);
}

TEST(GuardedSpec, BudgetedSpecDegradesSlowInnerToMct) {
  // A registry-built guarded scheduler with an unmeetable budget rescues
  // every decision via one-shot MCT and still completes the episode with
  // a valid trace. (The rescued trajectory need not equal a pure
  // MctScheduler run: per-decision one-shot rescue and a stateful MCT
  // episode legitimately diverge — we pin completion + determinism.)
  const auto g = rd::cholesky_graph(4);
  auto run_once = [&g] {
    auto sched = rx::make_scheduler("guarded(budget_us=0.001):greedy");
    rs::Simulator sim(g, rs::Platform::hybrid(2, 2), rs::CostModel::cholesky(),
                      {0.0, 1});
    const auto result = sim.run(*sched);
    EXPECT_EQ(result.trace.validate(g, rs::Platform::hybrid(2, 2)), "");
    auto* guarded = dynamic_cast<rx::GuardedScheduler*>(sched.get());
    EXPECT_NE(guarded, nullptr);
    if (guarded != nullptr) EXPECT_GT(guarded->fallback_decisions(), 0u);
    return result.makespan;
  };
  const double first = run_once();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(first, run_once());  // degraded path is deterministic
}
