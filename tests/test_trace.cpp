#include <gtest/gtest.h>

#include "dag/cholesky.hpp"
#include "sim/trace.hpp"

namespace rd = readys::dag;
namespace rs = readys::sim;

namespace {

rd::TaskGraph chain2() {
  rd::TaskGraph g("chain", {"A"});
  g.add_task(0);
  g.add_task(0);
  g.add_edge(0, 1);
  return g;
}

}  // namespace

TEST(Trace, MakespanAndUtilization) {
  rs::Trace t;
  t.add({0, 0, 0.0, 10.0});
  t.add({1, 1, 0.0, 5.0});
  EXPECT_DOUBLE_EQ(t.makespan(), 10.0);
  const auto util = t.utilization(rs::Platform::cpus(2));
  EXPECT_DOUBLE_EQ(util[0], 1.0);
  EXPECT_DOUBLE_EQ(util[1], 0.5);
}

TEST(Trace, ValidScheduleAccepted) {
  rs::Trace t;
  t.add({0, 0, 0.0, 10.0});
  t.add({1, 0, 10.0, 20.0});
  EXPECT_EQ(t.validate(chain2(), rs::Platform::cpus(1)), "");
}

TEST(Trace, MissingTaskRejected) {
  rs::Trace t;
  t.add({0, 0, 0.0, 10.0});
  EXPECT_NE(t.validate(chain2(), rs::Platform::cpus(1)), "");
}

TEST(Trace, DuplicateTaskRejected) {
  rs::Trace t;
  t.add({0, 0, 0.0, 10.0});
  t.add({0, 0, 10.0, 20.0});
  EXPECT_NE(t.validate(chain2(), rs::Platform::cpus(1)), "");
}

TEST(Trace, DependencyViolationRejected) {
  rs::Trace t;
  t.add({0, 0, 0.0, 10.0});
  t.add({1, 1, 5.0, 15.0});  // starts before predecessor finishes
  EXPECT_NE(t.validate(chain2(), rs::Platform::cpus(2)), "");
}

TEST(Trace, ResourceOverlapRejected) {
  rd::TaskGraph g("pair", {"A"});
  g.add_task(0);
  g.add_task(0);
  rs::Trace t;
  t.add({0, 0, 0.0, 10.0});
  t.add({1, 0, 5.0, 15.0});
  EXPECT_NE(t.validate(g, rs::Platform::cpus(1)), "");
}

TEST(Trace, UnknownResourceRejected) {
  rd::TaskGraph g("one", {"A"});
  g.add_task(0);
  rs::Trace t;
  t.add({0, 7, 0.0, 1.0});
  EXPECT_NE(t.validate(g, rs::Platform::cpus(1)), "");
}

TEST(Trace, NegativeDurationRejected) {
  rd::TaskGraph g("one", {"A"});
  g.add_task(0);
  rs::Trace t;
  t.add({0, 0, 5.0, 1.0});
  EXPECT_NE(t.validate(g, rs::Platform::cpus(1)), "");
}

TEST(Trace, ZeroDurationTasksAreValid) {
  // Truncated-Gaussian noise can produce zero-length tasks.
  rd::TaskGraph g("pair", {"A"});
  g.add_task(0);
  g.add_task(0);
  rs::Trace t;
  t.add({0, 0, 3.0, 3.0});
  t.add({1, 0, 3.0, 3.0});
  EXPECT_EQ(t.validate(g, rs::Platform::cpus(1)), "");
  // A zero-length task starting at the same instant as a longer one on
  // the same CPU is not an overlap, whatever the entry order.
  rs::Trace tie;
  tie.add({0, 0, 3.0, 5.0});
  tie.add({1, 0, 3.0, 3.0});
  EXPECT_EQ(tie.validate(g, rs::Platform::cpus(1)), "");
}
