// ftbench — the checker's benchmark.
//
//   ftbench run --workload W [--seed N] [--seconds S] [--trace 0|1]
//               [--expected FILE] [--scratch DIR]
//   ftbench pin [--scratch DIR]     recompute the pinned expectations,
//                                   cross-checked against a second engine
//   ftbench worker                  fleet shard-worker mode (internal)
//
// The last stdout line of `run` is one JSON object: correct, attempted,
// failed, metrics.  See perfbench/README.md.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "check/repair.h"
#include "util/eventlog.h"
#include "util/subprocess.h"

namespace {

using namespace ftbench;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string expected = "perfbench/expected.txt";
  std::string scratch = ".";
};

int usage() {
  std::fprintf(stderr,
               "usage: ftbench run --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--expected FILE] [--scratch DIR]\n"
               "       ftbench pin [--scratch DIR]\n"
               "       ftbench worker\n");
  return 2;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].second.value;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].first.c_str(), v,
                metrics[i].second.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

JobContext makeContext(const Args& a, const char* argv0) {
  JobContext ctx;
  ctx.workerExe = util::selfExePath(argv0);
  ctx.scratchDir = a.scratch;
  return ctx;
}

// Per-job watchdog in the parent: longer than every in-engine deadline,
// short enough that a wedged job cannot hold a run past its limit.
constexpr double kWatchdogSeconds = 90.0;
constexpr int kSetupRepsPerWindow = 201;

// ---------------------------------------------------------------------------
// Untraced run: closed loop, one job in flight.
// ---------------------------------------------------------------------------

int runUntraced(const Workload& w, const Args& a, const JobContext& ctx) {
  const int fence = repairFenceForSeed(a.seed);
  // Set-up (expectations and the System) takes microseconds, so a
  // neighbour's thread on the same physical core slows it by ~1.5x, and
  // such phases come and go over seconds.  One round of set-ups runs
  // pinned to each CPU the run may use in turn, before the first job and
  // again after every verdict (nothing else of ours runs then); setup_s
  // is the lowest window median, the set-up on an undisturbed core.
  std::vector<double> windowMedians;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool pin = ::sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  auto setupRound = [&](Expected& expected, sim::System& sys) {
    for (int cpu = 0; cpu < (pin ? CPU_SETSIZE : 1); ++cpu) {
      if (pin) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::sched_setaffinity(0, sizeof one, &one);
      }
      std::vector<double> reps;
      for (int i = 0; i < kSetupRepsPerWindow; ++i) {
        const auto t0 = Clock::now();
        std::optional<Expected> e = loadExpected(a.expected);
        if (!e) {
          if (pin) ::sched_setaffinity(0, sizeof allowed, &allowed);
          return false;
        }
        expected = std::move(*e);
        sys = buildSystem(w, fence);
        reps.push_back(secondsSince(t0));
      }
      windowMedians.push_back(median(reps));
    }
    if (pin) ::sched_setaffinity(0, sizeof allowed, &allowed);
    return true;
  };
  Expected expected;
  sim::System sys;
  if (!setupRound(expected, sys)) {
    std::fprintf(stderr, "error: cannot read expectations %s\n",
                 a.expected.c_str());
    return 2;
  }
  const std::string prefix = expectedPrefix(w, fence);
  std::printf("workload %s: %s\n", w.name.c_str(), w.why.c_str());
  if (seedMatters(w)) {
    std::printf("seed %llu -> stripped fence %d\n",
                static_cast<unsigned long long>(a.seed), fence);
  } else {
    std::printf("seed %llu ignored: the job does not depend on it\n",
                static_cast<unsigned long long>(a.seed));
  }

  std::vector<double> verdictTimes, rss;
  std::uint64_t failed = 0;
  bool correct = true;
  const auto loopStart = Clock::now();
  int i = 0;
  do {
    const JobSample s = submitJob(w, sys, ctx, &expected, prefix,
                                  kWatchdogSeconds);
    ++i;
    verdictTimes.push_back(s.verdictSeconds);
    if (s.out.rssMb > 0.0) rss.push_back(s.out.rssMb);
    if (s.failed) ++failed;
    if (s.mismatch) correct = false;
    std::printf("job %d: verdict=%s stop=%s states=%llu verdict_s=%.4f "
                "peak_rss_mb=%.1f respawns=%d %s%s\n",
                i, s.out.verdict.c_str(), s.out.stop.c_str(),
                static_cast<unsigned long long>(s.out.states),
                s.verdictSeconds, s.out.rssMb, s.out.respawns,
                s.failed ? "FAILED: " : "ok", s.note.c_str());
    std::fflush(stdout);
    Expected again;
    sim::System rebuilt;
    setupRound(again, rebuilt);
  } while (secondsSince(loopStart) < a.seconds);

  const double vs = median(verdictTimes);
  const double setup =
      *std::min_element(windowMedians.begin(), windowMedians.end());
  const double peak = median(rss);
  const double failedFrac =
      static_cast<double>(failed) / static_cast<double>(verdictTimes.size());
  std::printf("verdict_s       %.4f s   (median of %zu jobs, closed loop)\n",
              vs, verdictTimes.size());
  std::printf("peak_rss_mb     %.1f MB  (median per job)\n", peak);
  std::printf("setup_s         %.6f s   (lowest median of %zu windows of "
              "%d set-ups)\n",
              setup, windowMedians.size(), kSetupRepsPerWindow);
  std::printf("ops_failed_frac %.4f ratio (%llu of %zu jobs)\n", failedFrac,
              static_cast<unsigned long long>(failed), verdictTimes.size());
  printResult(correct, verdictTimes.size(), failed,
              {{"verdict_s", {vs, "s"}},
               {"peak_rss_mb", {peak, "MB"}},
               {"setup_s", {setup, "s"}}});
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer costs from the benchmark's own loop.
// ---------------------------------------------------------------------------

/// Per-layer values by name; units come from layerMetricNames().
struct LayerMetrics {
  std::map<std::string, double> m;
  void set(const std::string& name, double v) {
    if (m.count(name) == 0) {
      std::fprintf(stderr, "ftbench: unknown per-layer metric %s\n",
                   name.c_str());
      std::abort();
    }
    m[name] = v;
  }
};

/// The per-layer metric names, in print order, with units.  Every name
/// is printed for every workload; a layer the workload never runs
/// reads 0.
const std::vector<std::pair<const char*, const char*>>& layerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"sim.moves.ns", "ns/state"},
      {"sim.moves.per_state", "moves/state"},
      {"sim.dpor.ns", "ns/state"},
      {"sim.dpor.singleton_rate", "ratio"},
      {"sim.dpor.sleep_pruned", "count"},
      {"sim.dpor.proviso_widenings", "count"},
      {"sim.dpor.state_ratio", "ratio"},
      {"sim.exec.ns", "ns/state"},
      {"sim.copy.ns", "ns/state"},
      {"sim.key.ns", "ns/state"},
      {"sim.key.bytes", "B/key"},
      {"util.visited.insert_ns", "ns/call"},
      {"util.visited.hit_ns", "ns/call"},
      {"util.visited.dedup_hit_rate", "ratio"},
      {"util.visited.bytes_per_state", "B/state"},
      {"sim.par.speedup", "x"},
      {"sim.par.steals", "count"},
      {"sim.par.idle_spins", "count"},
      {"sim.par.imbalance", "ratio"},
      {"check.repair.candidates", "count"},
      {"check.repair.screened_frac", "ratio"},
      {"check.repair.fuzz_s", "s"},
      {"check.repair.explore_s", "s"},
      {"check.repair.matrix_s", "s"},
      {"check.fuzz.schedules_per_s", "1/s"},
      {"fleet.forwarded_per_state", "ratio"},
      {"fleet.frame_ns", "ns/path"},
      {"fleet.replay_ns", "ns/path"},
      {"fleet.respawns", "count"},
      {"fleet.imbalance", "ratio"},
      {"sim.states", "count"},
      {"sim.states_per_s", "1/s"},
      {"unattributed_frac", "ratio"},
      {"trace_overhead_frac", "ratio"},
  };
  return names;
}

/// Per-state layer self-times of a traced loop, clock cost removed.
/// Returns the summed layer time in ns.
double putLayers(LayerMetrics& lm, const TracedResult& tr, double clockNs) {
  const LayerTotals& t = tr.totals;
  const double states = static_cast<double>(tr.states);
  auto self = [&](int l) {
    return std::max(0.0, static_cast<double>(t.ns[l]) -
                             clockNs * static_cast<double>(t.calls[l]));
  };
  double sum = 0.0;
  for (int l = 0; l < kLayerCount; ++l) sum += self(l);
  lm.set("sim.moves.ns", self(kMoves) / states);
  lm.set("sim.moves.per_state",
         t.expansions ? static_cast<double>(t.movesExplored) /
                            static_cast<double>(t.expansions)
                      : 0.0);
  lm.set("sim.dpor.ns", self(kDpor) / states);
  const std::uint64_t reducedOrFull = t.singletons + t.full;
  lm.set("sim.dpor.singleton_rate",
         reducedOrFull ? static_cast<double>(t.singletons) /
                             static_cast<double>(reducedOrFull)
                       : 0.0);
  lm.set("sim.dpor.sleep_pruned", static_cast<double>(t.sleepPruned));
  lm.set("sim.dpor.proviso_widenings",
         static_cast<double>(t.provisoWidenings));
  lm.set("sim.exec.ns", self(kExec) / states);
  lm.set("sim.copy.ns", self(kCopy) / states);
  lm.set("sim.key.ns", self(kKey) / states);
  lm.set("sim.key.bytes",
         t.calls[kKey] ? static_cast<double>(t.keyBytes) /
                             static_cast<double>(t.calls[kKey])
                       : 0.0);
  lm.set("util.visited.insert_ns",
         t.calls[kInsert]
             ? self(kInsert) / static_cast<double>(t.calls[kInsert])
                          : 0.0);
  lm.set("util.visited.hit_ns",
         t.calls[kHit] ? self(kHit) / static_cast<double>(t.calls[kHit]) : 0.0);
  const std::uint64_t probes = t.calls[kInsert] + t.calls[kHit];
  lm.set("util.visited.dedup_hit_rate",
         probes ? static_cast<double>(t.calls[kHit]) /
                      static_cast<double>(probes)
                : 0.0);
  lm.set("util.visited.bytes_per_state",
         static_cast<double>(tr.visitedBytes) / states);
  return sum;
}

void printLayerTable(const TracedResult& tr, double clockNs,
                     double engineNsPerState) {
  std::printf("  layer                 calls        self ns/state  share of "
              "engine ns/state (%.0f)\n",
              engineNsPerState);
  const double states = static_cast<double>(tr.states);
  for (int l = 0; l < kLayerCount; ++l) {
    const double self =
        std::max(0.0, static_cast<double>(tr.totals.ns[l]) -
                          clockNs * static_cast<double>(tr.totals.calls[l])) /
        states;
    std::printf("  %-20s %12llu %12.1f %8.1f%%\n", layerName(l),
                static_cast<unsigned long long>(tr.totals.calls[l]), self,
                engineNsPerState > 0 ? 100.0 * self / engineNsPerState : 0.0);
  }
}

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// `wrong`: the failure is an output that differs from its pinned or
  /// engine value (not just an early stop), which makes the run incorrect.
  void expect(bool ok, const std::string& what, bool wrong = true) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = correct && !wrong;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// A pinned value, or "" when the file has none.
std::string pinned(const Expected& e, const std::string& key) {
  const auto it = e.find(key);
  return it == e.end() ? "" : it->second;
}

std::uint64_t pinnedStates(const Expected& e, const std::string& prefix) {
  return std::strtoull(pinned(e, prefix + ".states").c_str(), nullptr, 10);
}

/// Engine result vs the pinned job expectation.
void checkEngine(Checks& c, const Workload& w, const Expected& e,
                 const std::string& prefix, const sim::ExploreResult& r) {
  JobOutcome o;
  o.verdict = r.capped() ? "inconclusive"
              : r.mutexViolation ? "violated"
                                 : "correct";
  o.states = r.statesVisited;
  o.outcomes = sim::outcomesToString(r.outcomes, r.capped());
  const std::string diff = compareToExpected(w, o, e, prefix);
  c.expect(diff.empty(), "engine run of " + prefix + ": " + diff);
}

void checkTraced(Checks& c, const TracedResult& tr, std::uint64_t states,
                 const std::set<std::vector<sim::Value>>& outcomes,
                 const std::string& what) {
  c.expect(tr.states == states,
           what + ": traced loop admitted " + std::to_string(tr.states) +
               " states, the engine " + std::to_string(states));
  c.expect(tr.outcomes == outcomes, what + ": traced loop outcome set differs");
}

int runTraced(const Workload& w, const Args& a, const JobContext& ctx) {
  const int fence = repairFenceForSeed(a.seed);
  const std::optional<Expected> exp = loadExpected(a.expected);
  if (!exp) {
    std::fprintf(stderr, "error: cannot read expectations %s\n",
                 a.expected.c_str());
    return 2;
  }
  const Expected& e = *exp;
  const sim::System sys = buildSystem(w, fence);
  const std::string prefix = expectedPrefix(w, fence);
  const std::string spanPath = a.scratch + "/spans-" + w.name + ".jsonl";
  std::remove(spanPath.c_str());
  const double clockNs = clockOverheadNs();
  std::printf("workload %s (traced): clock read pair costs %.1f ns\n",
              w.name.c_str(), clockNs);

  LayerMetrics lm;
  for (const auto& [name, unit] : layerMetricNames()) lm.m[name] = 0.0;
  Checks c;

  // The engine run and the traced loop on the same System; states and
  // per-state costs reconcile against the engine's worker-ns per state.
  auto exploreLayers = [&](const sim::System& s, sim::ReductionMode mode,
                           int workers, const sim::ExploreResult& engine,
                           const std::string& label) {
    TracedOptions to;
    to.reduction = mode;
    to.threads = workers;
    const TracedResult tr = tracedExplore(s, to);
    to.timed = false;
    const TracedResult plain = tracedExplore(s, to);
    checkTraced(c, tr, engine.statesVisited, engine.outcomes, label);
    checkTraced(c, plain, engine.statesVisited, engine.outcomes,
                label + " (untimed)");
    if (mode == sim::ReductionMode::sourceDpor) {
      c.expect(tr.totals.sleepPruned == engine.telemetry.sleepPruned &&
                   tr.totals.provisoWidenings ==
                       engine.telemetry.provisoWidenings,
               label + ": traced DPOR counters differ from the engine's");
    }
    const double engineNs = engine.telemetry.wallSeconds * 1e9 * workers;
    const double sum = putLayers(lm, tr, clockNs);
    const double perState = engineNs / static_cast<double>(tr.states);
    printLayerTable(tr, clockNs, perState);
    std::printf("  traced loop %.3f s, untimed loop %.3f s, engine %.3f s x %d "
                "worker(s)\n",
                tr.wallSeconds, plain.wallSeconds,
                engine.telemetry.wallSeconds, workers);
    writeSpans(spanPath, label, tr.spans);
    return std::make_pair(1.0 - sum / engineNs,
                          tr.wallSeconds / plain.wallSeconds - 1.0);
  };

  auto engineRun = [&](const sim::System& s, sim::ReductionMode mode,
                       int workers) {
    sim::ExploreOptions eo;
    eo.maxStates = 50'000'000;
    eo.reduction = mode;
    eo.workers = workers;
    return sim::explore(s, eo);
  };

  // The fleet layer: one real fleet job (respawns, engine time) and two
  // in-process shards (step, offer, frame codec, replay).
  struct FleetProbe {
    double states = 0, jobSeconds = 0, unattributed = 0, overhead = 0;
  };
  auto probeFleet = [&](const Workload& fw) {
    const sim::System fsys = buildSystem(fw, 0);
    const std::string fprefix = expectedPrefix(fw, 0);
    const JobSample s = submitJob(fw, fsys, ctx, &e, fprefix, kWatchdogSeconds);
    c.expect(!s.failed, "fleet job: " + s.note, s.mismatch);
    lm.set("fleet.respawns", s.out.respawns);
    const ShardTrace st = tracedShards(fsys, true);
    const ShardTrace plain = tracedShards(fsys, false);
    const std::uint64_t states = st.admitted[0] + st.admitted[1];
    c.expect(states == pinnedStates(e, fprefix),
             "in-process shards admitted " + std::to_string(states) +
                 " states");
    c.expect(plain.admitted[0] + plain.admitted[1] == states,
             "untimed in-process shards admitted a different count");
    c.expect(sim::outcomesToString(st.outcomes) ==
                 pinned(e, fprefix + ".outcomes"),
             "in-process shards reached a different outcome set");
    const double fwd = static_cast<double>(st.forwarded);
    const double calls = static_cast<double>(st.stepCalls) + 3.0 * fwd;
    const double shardNs =
        static_cast<double>(st.stepNs + st.encodeNs + st.decodeNs +
                            st.offerNs) -
        clockNs * calls;
    lm.set("fleet.forwarded_per_state", fwd / static_cast<double>(states));
    lm.set("fleet.frame_ns",
           (static_cast<double>(st.encodeNs + st.decodeNs) -
            2 * clockNs * fwd) / fwd);
    lm.set("fleet.replay_ns",
           (static_cast<double>(st.replayNs) - clockNs * fwd) / fwd);
    const double mean = static_cast<double>(states) / 2.0;
    lm.set("fleet.imbalance",
           static_cast<double>(std::max(st.admitted[0], st.admitted[1])) /
               mean);
    std::printf("  fleet job (%s) %.3f s x %d workers; in-process shards "
                "%.3f s (untimed %.3f s)\n",
                fw.name.c_str(), s.verdictSeconds, fw.workers, st.wallSeconds,
                plain.wallSeconds);
    std::printf("  step %.3f s, encode %.3f s, decode %.3f s, replay %.3f s, "
                "offer %.3f s over %llu forwarded paths\n",
                st.stepNs * 1e-9, st.encodeNs * 1e-9, st.decodeNs * 1e-9,
                st.replayNs * 1e-9, st.offerNs * 1e-9,
                static_cast<unsigned long long>(st.forwarded));
    FleetProbe fp;
    fp.states = static_cast<double>(states);
    fp.jobSeconds = s.verdictSeconds;
    fp.unattributed = 1.0 - shardNs / (s.verdictSeconds * 1e9 * fw.workers);
    fp.overhead = st.wallSeconds / plain.wallSeconds - 1.0;
    return fp;
  };

  if (w.kind == Kind::Explore) {
    const sim::ExploreResult engine = engineRun(sys, w.reduction, w.workers);
    checkEngine(c, w, e, prefix, engine);
    const auto [unattributed, overhead] =
        exploreLayers(sys, w.reduction, w.workers, engine, w.name);
    lm.set("unattributed_frac", unattributed);
    lm.set("trace_overhead_frac", overhead);
    lm.set("sim.states", static_cast<double>(engine.statesVisited));
    lm.set("sim.states_per_s",
           engine.telemetry.statesPerSec(engine.statesVisited));
    if (w.reduction == sim::ReductionMode::sourceDpor) {
      // DPOR's reduction on the par4 system, against its pinned
      // unreduced count.
      const Workload& par = *findWorkload("par4-rtour-crash1");
      const sim::ExploreResult red =
          engineRun(buildSystem(par, 0), sim::ReductionMode::sourceDpor, 1);
      const std::uint64_t full = pinnedStates(e, par.name);
      c.expect(full > 0, "no pinned state count for " + par.name);
      lm.set("sim.dpor.state_ratio",
             full ? static_cast<double>(red.statesVisited) /
                        static_cast<double>(full)
                  : 0.0);
      std::printf("  DPOR on %s: %llu of %llu states\n", par.name.c_str(),
                  static_cast<unsigned long long>(red.statesVisited),
                  static_cast<unsigned long long>(full));
    }
    if (w.workers > 1) {
      const sim::ExploreResult one = engineRun(sys, w.reduction, 1);
      checkEngine(c, w, e, prefix, one);
      lm.set("sim.par.speedup",
             one.telemetry.wallSeconds / engine.telemetry.wallSeconds);
      std::uint64_t steals = 0, idle = 0, maxAdm = 0, sumAdm = 0;
      for (const sim::WorkerTelemetry& wt : engine.telemetry.workers) {
        steals += wt.steals;
        idle += wt.idleSpins;
        maxAdm = std::max(maxAdm, wt.statesAdmitted);
        sumAdm += wt.statesAdmitted;
      }
      lm.set("sim.par.steals", static_cast<double>(steals));
      lm.set("sim.par.idle_spins", static_cast<double>(idle));
      lm.set("sim.par.imbalance",
             sumAdm ? static_cast<double>(maxAdm) * w.workers /
                          static_cast<double>(sumAdm)
                    : 0.0);
      std::printf("  1 worker %.3f s, %d workers %.3f s\n",
                  one.telemetry.wallSeconds, w.workers,
                  engine.telemetry.wallSeconds);
    }
  } else if (w.kind == Kind::Repair) {
    util::EventLog::instance().resetProfile();
    check::RepairOptions ro;
    ro.fuzzWorkers = 1;
    ro.reduction = w.reduction;
    const auto t0 = Clock::now();
    const check::RepairReport rep = check::repairMutualExclusion(sys, ro);
    const double wall = secondsSince(t0);
    const util::RunProfileSnapshot prof =
        util::EventLog::instance().snapshotProfile();
    JobOutcome o;
    o.verdict = check::verdictName(rep.verdict);
    o.report = check::repairReportToJson(rep);
    const std::string diff = compareToExpected(w, o, e, prefix);
    c.expect(diff.empty(), "repair job: " + diff);
    auto phaseSeconds = [&](const char* name) {
      const util::PhaseSpan* p = prof.find(name);
      return p ? p->seconds : 0.0;
    };
    auto phaseArg0 = [&](const char* name) {
      const util::PhaseSpan* p = prof.find(name);
      return p ? static_cast<double>(p->arg0) : 0.0;
    };
    const double search = phaseSeconds("repair.search");
    const double stages = phaseSeconds("repair.ground-truth") +
                          phaseSeconds("repair.screen") +
                          phaseSeconds("repair.fuzz") +
                          phaseSeconds("repair.exhaustive") +
                          phaseSeconds("repair.matrix");
    std::printf("  repair %.3f s; stage spans:\n", wall);
    double states = 0.0;
    for (const util::PhaseSpan& p : prof.phases) {
      std::printf("    %-24s x%-5llu %8.4f s  %s=%lld\n", p.name.c_str(),
                  static_cast<unsigned long long>(p.count), p.seconds,
                  p.arg0Label.c_str(), static_cast<long long>(p.arg0));
      // Engine spans (explore.seq[...], explore.par[...]) are the leaves
      // every stage and differential leg nests its exploration in.
      if (p.name.rfind("explore.", 0) == 0) {
        states += static_cast<double>(p.arg0);
      }
    }
    lm.set("check.repair.candidates",
           static_cast<double>(rep.candidatesEvaluated));
    lm.set("check.repair.screened_frac",
           rep.candidatesEvaluated
               ? static_cast<double>(rep.candidatesScreenedByWitness) /
                     static_cast<double>(rep.candidatesEvaluated)
               : 0.0);
    lm.set("check.repair.fuzz_s", phaseSeconds("repair.fuzz"));
    lm.set("check.repair.explore_s",
           phaseSeconds("repair.ground-truth") +
               phaseSeconds("repair.exhaustive"));
    lm.set("check.repair.matrix_s", phaseSeconds("repair.matrix"));
    lm.set("check.fuzz.schedules_per_s",
           phaseSeconds("repair.fuzz") > 0
               ? phaseArg0("repair.fuzz") / phaseSeconds("repair.fuzz")
               : 0.0);
    lm.set("sim.states", states);
    lm.set("sim.states_per_s", search > 0 ? states / search : 0.0);
    lm.set("unattributed_frac", search > 0 ? 1.0 - stages / search : 0.0);
    // Per-state layers of one exhaustive leg: the cheapest repair.
    if (!rep.frontier.empty()) {
      const sim::System fixed =
          check::applyFenceSites(sys, rep.sites, rep.frontier[0].sites);
      const sim::ExploreResult engine = engineRun(fixed, w.reduction, 1);
      std::printf("  exhaustive leg on the cheapest repair (%llu states):\n",
                  static_cast<unsigned long long>(engine.statesVisited));
      const auto [legUnattributed, overhead] =
          exploreLayers(fixed, w.reduction, 1, engine, w.name + "-leg");
      std::printf("  leg unattributed_frac %.4f\n", legUnattributed);
      lm.set("trace_overhead_frac", overhead);
    } else {
      c.expect(false, "repair found no frontier point to trace");
    }
    // fleet-gt2n3 is not listed in BENCHMARK.json (see README), so the
    // fleet layer is probed here, on the same GT_2 n=3 PSO lock
    // unstripped.
    probeFleet(*findWorkload("fleet-gt2n3"));
  } else {
    const FleetProbe fp = probeFleet(w);
    lm.set("sim.states", fp.states);
    lm.set("sim.states_per_s", fp.states / fp.jobSeconds);
    lm.set("unattributed_frac", fp.unattributed);
    lm.set("trace_overhead_frac", fp.overhead);
    // The sim layers of the same state space, sequential unreduced.
    const sim::ExploreResult engine =
        engineRun(sys, sim::ReductionMode::none, 1);
    checkEngine(c, w, e, prefix, engine);
    std::printf("  sequential unreduced layers of the same system:\n");
    exploreLayers(sys, sim::ReductionMode::none, 1, engine, w.name + "-seq");
  }

  Metrics out;
  for (const auto& [name, unit] : layerMetricNames()) {
    out.emplace_back(name, Metric{lm.m[name], unit});
    std::printf("%-30s %14.6g %s\n", name, lm.m[name], unit);
  }
  std::printf("spans: %s\n", spanPath.c_str());
  printResult(c.correct, c.attempted, c.failed, out);
  return c.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Pin: recompute every expectation, cross-checked against a second
// engine, and print the expectations file.
// ---------------------------------------------------------------------------

int runPin(const JobContext& ctx) {
  bool ok = true;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "pin: %s\n", what.c_str());
    ok = false;
  };
  std::string file =
      "# Pinned expectations of the perfbench jobs (ftbench pin).\n";
  auto put = [&](const std::string& key, const std::string& value) {
    file += key + " " + value + "\n";
  };
  auto verdictOf = [](const sim::ExploreResult& r) {
    return std::string(r.capped()           ? "inconclusive"
                       : r.mutexViolation ? "violated"
                                          : "correct");
  };
  for (const Workload& w : workloads()) {
    if (w.kind == Kind::Repair) {
      for (int fence : repairFences()) {
        const sim::System sys = buildSystem(w, fence);
        check::RepairOptions ro;
        ro.reduction = w.reduction;
        ro.visitedTier = sim::VisitedTier::exact;
        const check::RepairReport exact = check::repairMutualExclusion(sys, ro);
        ro.visitedTier = sim::VisitedTier::compressed;
        const check::RepairReport comp = check::repairMutualExclusion(sys, ro);
        const std::string json = check::repairReportToJson(exact);
        if (json != check::repairReportToJson(comp)) {
          fail("repair fence " + std::to_string(fence) +
               ": exact and compressed tiers disagree");
        }
        const std::string prefix = expectedPrefix(w, fence);
        put(prefix + ".verdict", check::verdictName(exact.verdict));
        put(prefix + ".report", json);
      }
      continue;
    }
    const sim::System sys = buildSystem(w, 0);
    sim::ExploreOptions eo;
    eo.maxStates = 50'000'000;
    eo.reduction = w.reduction;
    eo.workers = w.kind == Kind::Explore ? w.workers : 1;
    const sim::ExploreResult r = sim::explore(sys, eo);
    if (w.kind == Kind::Explore && w.workers > 1) {
      // Cross-check against the sequential unreduced engine.
      eo.workers = 1;
      const sim::ExploreResult seq = sim::explore(sys, eo);
      if (seq.statesVisited != r.statesVisited || seq.outcomes != r.outcomes) {
        fail(w.name + ": sequential and parallel engines disagree");
      }
    }
    if (w.kind == Kind::Fleet) {
      const JobOutcome f = runJob(w, sys, ctx);
      if (f.states != r.statesVisited ||
          f.outcomes != sim::outcomesToString(r.outcomes) ||
          f.verdict != verdictOf(r)) {
        fail(w.name + ": fleet and sequential engine disagree");
      }
    }
    put(w.name + ".verdict", verdictOf(r));
    put(w.name + ".states", std::to_string(r.statesVisited));
    put(w.name + ".outcomes", sim::outcomesToString(r.outcomes, r.capped()));
  }
  std::fputs(file.c_str(), stdout);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
    return runFleetWorker();
  }
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(v);
    else if (arg == "--trace") a.trace = std::atoi(v);
    else if (arg == "--expected") a.expected = v;
    else if (arg == "--scratch") a.scratch = v;
    else return usage();
  }
  const JobContext ctx = makeContext(a, argv[0]);
  if (mode == "pin") return runPin(ctx);
  if (mode != "run") return usage();
  const Workload* w = findWorkload(a.workload);
  if (w == nullptr || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    return usage();
  }
  return a.trace ? runTraced(*w, a, ctx) : runUntraced(*w, a, ctx);
}
