// The checker's benchmark: four pinned verification jobs, run closed
// loop (one job in flight; the next is submitted when the previous
// verdict returns), each checked against pinned expectations, plus a
// traced run that drives the engine's layers from a loop owned here.
//
// Everything reaches the library through its public headers only; see
// perfbench/README.md for the metrics, the workloads and how to run.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/explore.h"
#include "sim/machine.h"

namespace ftbench {

using namespace fencetrade;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { Explore, Repair, Fleet };

struct Workload {
  std::string name;
  Kind kind = Kind::Explore;
  std::string lock;  ///< lock_doctor naming: gt2, gt3, rtournament
  sim::MemoryModel model = sim::MemoryModel::PSO;
  int n = 3;
  int crashBudget = 0;
  sim::ReductionMode reduction = sim::ReductionMode::none;
  int workers = 1;  ///< explore threads, or fleet worker processes
  std::string why;
};

const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

/// Fences the repair workload may strip (stripFence index, applied to
/// every program); the seed picks one, seed 0 picks the first.
const std::vector<int>& repairFences();
int repairFenceForSeed(std::uint64_t seed);

/// Does the seed change this workload's job?  Only repair's can, when
/// more than one fence is pinned; the exploration jobs are
/// deterministic and ignore it.
bool seedMatters(const Workload& w);

/// The System a workload's job checks: core factory, count object,
/// crash budget, and for repair the stripped fence.
sim::System buildSystem(const Workload& w, int strippedFence);

// ---------------------------------------------------------------------------
// Pinned expectations: "key value" lines; the value runs to end of line.
// Keys: <workload>.verdict / .states / .outcomes, and for repair
// repair-gt2n3.fence<K>.verdict / .report.
// ---------------------------------------------------------------------------

using Expected = std::map<std::string, std::string>;

std::optional<Expected> loadExpected(const std::string& path);

/// Prefix of a job's keys in the expectations file.
std::string expectedPrefix(const Workload& w, int strippedFence);

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// What a finished job reports.  Wall-clock fields are deliberately
/// absent: everything here is compared against the pinned values.
struct JobOutcome {
  std::string verdict;  ///< check::verdictName vocabulary
  std::string stop;     ///< util::stopReasonName
  std::uint64_t states = 0;
  std::string outcomes;  ///< sim::outcomesToString
  std::string report;    ///< repair only: check::repairReportToJson
  int respawns = 0;      ///< fleet only
  bool early = false;    ///< stopped before its verdict (cap, deadline, ...)
  double rssMb = 0.0;    ///< peak RSS of the job process (+ fleet workers)
};

struct JobContext {
  std::string workerExe;  ///< fleet: this binary, re-exec'd as `worker`
  std::string scratchDir; ///< fleet workers drop their peak RSS here
};

/// Run one job in the calling process.
JobOutcome runJob(const Workload& w, const sim::System& sys,
                  const JobContext& ctx);

/// One closed-loop submission: the job runs in a forked child so its
/// peak RSS is its own; verdictSeconds is steady-clock time from
/// submission to the verdict arriving back.
struct JobSample {
  double verdictSeconds = 0.0;
  JobOutcome out;
  bool failed = false;    ///< stopped early, or differs from pinned
  bool mismatch = false;  ///< finished but differs from pinned
  std::string note;       ///< why it failed
};

JobSample submitJob(const Workload& w, const sim::System& sys,
                    const JobContext& ctx, const Expected* expected,
                    const std::string& prefix, double watchdogSeconds);

/// Differences between an outcome and its pinned expectation; empty
/// when they agree.  Missing keys count as differences.
std::string compareToExpected(const Workload& w, const JobOutcome& out,
                              const Expected& expected,
                              const std::string& prefix);

/// Worker-mode entry (fleet shard process).
int runFleetWorker();

// ---------------------------------------------------------------------------
// Traced loop
// ---------------------------------------------------------------------------

enum Layer : int {
  kMoves = 0,  ///< detail::enabledMovesInto
  kDpor,       ///< DporContext select/childSleep/reawaken/widen
  kCopy,       ///< successor Config copy
  kExec,       ///< execElem (with RMR accounting)
  kKey,        ///< Config::behavioralKeyInto
  kInsert,     ///< visited insert of a fresh key
  kHit,        ///< visited insert of a duplicate key
  kLayerCount,
};

const char* layerName(int layer);

/// One recorded span: a layer call (or the "edge" root that groups the
/// calls producing one successor), tied to its edge id.
struct Span {
  std::uint64_t edge = 0;
  std::int32_t parent = -1;  ///< index in the same thread's span list
  std::int16_t name = -1;    ///< Layer, or -1 for the edge root
  std::int16_t thread = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

struct LayerTotals {
  std::uint64_t ns[kLayerCount] = {};
  std::uint64_t calls[kLayerCount] = {};
  std::uint64_t keyBytes = 0;
  std::uint64_t expansions = 0;     ///< states whose moves were chosen
  std::uint64_t movesExplored = 0;  ///< moves chosen, summed
  std::uint64_t singletons = 0;     ///< DPOR: expansions via a reduced set
  std::uint64_t full = 0;
  std::uint64_t sleepPruned = 0;
  std::uint64_t provisoWidenings = 0;

  void add(const LayerTotals& o);
};

struct TracedOptions {
  sim::ReductionMode reduction = sim::ReductionMode::none;
  int threads = 1;  ///< > 1: unreduced only, shared ShardedStateSet
  bool timed = true;  ///< false: same loop, no clock reads (overhead ref)
};

struct TracedResult {
  std::uint64_t states = 0;
  std::set<std::vector<sim::Value>> outcomes;
  int maxCsOccupancy = 0;
  double wallSeconds = 0.0;
  std::uint64_t visitedBytes = 0;
  LayerTotals totals;
  std::vector<Span> spans;
};

/// The engine's expansion order driven from here: moves -> DPOR ->
/// Config copy + execElem -> key -> visited insert.  Admits exactly the
/// engine's state count (sequential explore() for 1 thread; any
/// unreduced engine for > 1 threads).
TracedResult tracedExplore(const sim::System& sys, const TracedOptions& opts);

/// Mean cost of one span's pair of clock reads, subtracted from every
/// layer total before it is reported.
double clockOverheadNs();

/// Two sim::ShardExplorers driven in-process, forwarding through the
/// fleet's frame codec.
struct ShardTrace {
  std::uint64_t admitted[2] = {};
  std::uint64_t forwarded = 0;
  std::set<std::vector<sim::Value>> outcomes;
  double wallSeconds = 0.0;
  std::uint64_t stepNs = 0, stepCalls = 0;  ///< step() minus forward callbacks
  std::uint64_t encodeNs = 0, decodeNs = 0;  ///< per forwarded path
  std::uint64_t replayNs = 0;  ///< sim::replayPath on each forwarded path
  std::uint64_t offerNs = 0;   ///< ShardExplorer::offer
};

ShardTrace tracedShards(const sim::System& sys, bool timed);

/// Write spans as JSON lines (one object per span).
bool writeSpans(const std::string& path, const std::string& label,
                const std::vector<Span>& spans);

double median(std::vector<double> v);

}  // namespace ftbench
