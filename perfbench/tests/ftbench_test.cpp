// The benchmark's own tests: the traced loop admits the engine's states,
// verdict_s is steady-clock wall time, and a mismatch is caught.
#include <gtest/gtest.h>

#include <chrono>

#include "bench.h"

namespace ftbench {
namespace {

sim::System gt2n3() {
  Workload w = *findWorkload("fleet-gt2n3");
  return buildSystem(w, 0);
}

TEST(TracedLoop, ReproducesUnreducedStateCount) {
  const sim::System sys = gt2n3();
  TracedOptions o;
  o.reduction = sim::ReductionMode::none;
  const TracedResult tr = tracedExplore(sys, o);
  EXPECT_EQ(tr.states, 186151u);
  sim::ExploreOptions eo;
  const sim::ExploreResult engine = sim::explore(sys, eo);
  EXPECT_EQ(tr.outcomes, engine.outcomes);
  EXPECT_EQ(tr.maxCsOccupancy, engine.maxCsOccupancy);
}

TEST(TracedLoop, ReproducesDporStateCountAndCounters) {
  const sim::System sys = gt2n3();
  TracedOptions o;
  o.reduction = sim::ReductionMode::sourceDpor;
  const TracedResult tr = tracedExplore(sys, o);
  EXPECT_EQ(tr.states, 43274u);
  sim::ExploreOptions eo;
  eo.reduction = sim::ReductionMode::sourceDpor;
  const sim::ExploreResult engine = sim::explore(sys, eo);
  EXPECT_EQ(tr.outcomes, engine.outcomes);
  EXPECT_EQ(tr.totals.sleepPruned, engine.telemetry.sleepPruned);
  EXPECT_EQ(tr.totals.provisoWidenings, engine.telemetry.provisoWidenings);
  EXPECT_EQ(tr.totals.singletons, engine.telemetry.reductionSingletons);
}

TEST(TracedLoop, ParallelModeAdmitsEveryStateOnce) {
  const sim::System sys = gt2n3();
  TracedOptions o;
  o.threads = 4;
  const TracedResult tr = tracedExplore(sys, o);
  EXPECT_EQ(tr.states, 186151u);
  EXPECT_EQ(tr.totals.calls[kInsert], 186151u);
  o.timed = false;
  EXPECT_EQ(tracedExplore(sys, o).states, 186151u);
}

TEST(TracedShards, AdmitTheSequentialStateCount) {
  const ShardTrace st = tracedShards(gt2n3(), true);
  EXPECT_EQ(st.admitted[0] + st.admitted[1], 186151u);
  EXPECT_GT(st.forwarded, 0u);
}

TEST(Jobs, VerdictSecondsIsWallTimeAroundTheCall) {
  // A 4-worker job: a CPU-time clock would read about 4x the wall time
  // (or the idle main thread's near-zero), so equality with the
  // wall-clock interval around the call pins the clock.
  Workload w = *findWorkload("par4-rtour-crash1");
  w.lock = "gt2";
  w.crashBudget = 0;
  ASSERT_EQ(w.workers, 4);
  const sim::System sys = buildSystem(w, 0);
  JobContext ctx;
  const auto t0 = std::chrono::steady_clock::now();
  const JobSample s = submitJob(w, sys, ctx, nullptr, "", 60.0);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  ASSERT_FALSE(s.failed) << s.note;
  EXPECT_EQ(s.out.states, 186151u);
  // The clock stops when the verdict arrives, before the child's exit
  // and teardown, which the slack allows for.
  EXPECT_LE(s.verdictSeconds, elapsed);
  EXPECT_GE(s.verdictSeconds, 0.95 * elapsed - 0.02);
}

TEST(Jobs, MismatchAgainstPinnedValuesIsReported) {
  const Workload& w = *findWorkload("dpor-gt3n4");
  JobOutcome o;
  o.verdict = "correct";
  o.states = 10;
  o.outcomes = "{(0)}";
  Expected e = {{"dpor-gt3n4.verdict", "correct"},
                {"dpor-gt3n4.states", "10"},
                {"dpor-gt3n4.outcomes", "{(0)}"}};
  EXPECT_EQ(compareToExpected(w, o, e, "dpor-gt3n4"), "");
  e["dpor-gt3n4.states"] = "11";
  EXPECT_NE(compareToExpected(w, o, e, "dpor-gt3n4"), "");
  e.erase("dpor-gt3n4.states");
  EXPECT_NE(compareToExpected(w, o, e, "dpor-gt3n4"), "");
}

TEST(Workloads, SeedPicksPinnedFenceAndDefaultIsFenceZero) {
  EXPECT_EQ(repairFenceForSeed(0), 0);
  for (std::uint64_t s = 0; s < 16; ++s) {
    const int f = repairFenceForSeed(s);
    bool pinned = false;
    for (int k : repairFences()) pinned = pinned || k == f;
    EXPECT_TRUE(pinned);
  }
  EXPECT_FALSE(seedMatters(*findWorkload("dpor-gt3n4")));
}

}  // namespace
}  // namespace ftbench
