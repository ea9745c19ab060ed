// Workloads, pinned expectations and closed-loop job submission.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "check/inject.h"
#include "check/repair.h"
#include "check/verdict.h"
#include "core/gt.h"
#include "core/objects.h"
#include "core/recoverable.h"
#include "fleet/coordinator.h"
#include "fleet/jobspec.h"
#include "fleet/worker.h"
#include "util/eventlog.h"
#include "util/runcontrol.h"
#include "util/subprocess.h"

namespace ftbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* modelName(sim::MemoryModel m) {
  switch (m) {
    case sim::MemoryModel::SC: return "SC";
    case sim::MemoryModel::TSO: return "TSO";
    case sim::MemoryModel::PSO: return "PSO";
  }
  return "?";
}

double selfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

constexpr const char* kWorkerRssEnv = "FTBENCH_WORKER_RSS_FILE";

// Per-job deadlines inside the engines.  A healthy job takes a few
// seconds; the fleet's is tighter so its known Done/exit race stops a
// job as a failure well inside one run instead of stalling for 120 s.
constexpr double kJobDeadlineSeconds = 60.0;
constexpr double kFleetDeadlineSeconds = 20.0;

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    Workload w;
    w.name = "dpor-gt3n4";
    w.kind = Kind::Explore;
    w.lock = "gt3";
    w.n = 4;
    w.reduction = sim::ReductionMode::sourceDpor;
    w.workers = 1;
    w.why = "sequential source-DPOR with sleep sets on 2M states: visited "
            "inserts, keys and selectMoves dominate; no parallel code";
    v.push_back(w);

    w = Workload{};
    w.name = "par4-rtour-crash1";
    w.kind = Kind::Explore;
    w.lock = "rtournament";
    w.n = 3;
    w.crashBudget = 1;
    w.reduction = sim::ReductionMode::none;
    w.workers = 4;
    w.why = "unreduced 4-worker work stealing with crash moves: bypasses "
            "DPOR, visited set mostly duplicate probes under contention";
    v.push_back(w);

    w = Workload{};
    w.name = "repair-gt2n3";
    w.kind = Kind::Repair;
    w.lock = "gt2";
    w.n = 3;
    w.reduction = sim::ReductionMode::sourceDpor;
    w.why = "counterexample-guided fence repair: many short explorations, "
            "fuzz screens and the re-verification matrix";
    v.push_back(w);

    w = Workload{};
    w.name = "fleet-gt2n3";
    w.kind = Kind::Fleet;
    w.lock = "gt2";
    w.n = 3;
    w.workers = 2;
    w.why = "2-process fleet: frame codec, routing and path replay of every "
            "forwarded state";
    v.push_back(w);
    return v;
  }();
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<int>& repairFences() {
  // Fences 1, 3, 4 and 7 also leave GT_2 repairable, but their repairs
  // take 0.8x-1.3x the time of fence 0's and differ in peak RSS, so a
  // seed choosing among them would spread verdict_s past its bound.
  // See perfbench/README.md.
  static const std::vector<int> fences = {0};
  return fences;
}

int repairFenceForSeed(std::uint64_t seed) {
  const auto& f = repairFences();
  return f[static_cast<std::size_t>(seed % f.size())];
}

bool seedMatters(const Workload& w) {
  return w.kind == Kind::Repair && repairFences().size() > 1;
}

sim::System buildSystem(const Workload& w, int strippedFence) {
  core::LockFactory factory = w.lock == "gt3" ? core::gtFactory(3)
                              : w.lock == "rtournament"
                                  ? core::recoverableTournamentFactory()
                                  : core::gtFactory(2);
  sim::System sys = core::buildCountSystem(w.model, w.n, factory).sys;
  sys.crashBudget = w.crashBudget;
  if (w.kind == Kind::Repair) check::stripFence(sys, strippedFence);
  return sys;
}

std::optional<Expected> loadExpected(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Expected e;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) return std::nullopt;
    e[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return e;
}

std::string expectedPrefix(const Workload& w, int strippedFence) {
  if (w.kind == Kind::Repair) {
    return w.name + ".fence" + std::to_string(strippedFence);
  }
  return w.name;
}

JobOutcome runJob(const Workload& w, const sim::System& sys,
                  const JobContext& ctx) {
  JobOutcome out;
  if (w.kind == Kind::Explore) {
    sim::ExploreOptions eo;
    eo.maxStates = 50'000'000;
    eo.workers = w.workers;
    eo.reduction = w.reduction;
    eo.control.deadline = util::RunControl::deadlineIn(kJobDeadlineSeconds);
    const sim::ExploreResult r = sim::explore(sys, eo);
    out.states = r.statesVisited;
    out.stop = util::stopReasonName(r.stopReason);
    out.early = r.capped();
    out.verdict = out.early          ? "inconclusive"
                  : r.mutexViolation ? "violated"
                                     : "correct";
    out.outcomes = sim::outcomesToString(r.outcomes, r.capped());
  } else if (w.kind == Kind::Repair) {
    check::RepairOptions ro;
    ro.fuzzWorkers = 1;
    ro.reduction = w.reduction;
    ro.control.deadline = util::RunControl::deadlineIn(kJobDeadlineSeconds);
    const check::RepairReport rep = check::repairMutualExclusion(sys, ro);
    out.verdict = check::verdictName(rep.verdict);
    out.stop = util::stopReasonName(rep.stopReason);
    out.early = rep.stopReason != util::StopReason::Complete;
    out.report = check::repairReportToJson(rep);
  } else {
    fleet::JobSpec spec;
    spec.lock = w.lock;
    spec.model = modelName(w.model);
    spec.n = w.n;
    spec.crashBudget = w.crashBudget;
    fleet::FleetOptions fo;
    fo.workers = w.workers;
    fo.workerExe = ctx.workerExe;
    fo.deadlineSeconds = kFleetDeadlineSeconds;
    const std::string rssFile = ctx.scratchDir + "/worker-rss-" +
                                std::to_string(::getpid()) + ".txt";
    std::remove(rssFile.c_str());
    ::setenv(kWorkerRssEnv, rssFile.c_str(), 1);
    const fleet::FleetResult r = fleet::runFleet(sys, spec, fo);
    ::unsetenv(kWorkerRssEnv);
    out.states = r.statesVisited;
    out.verdict = check::verdictName(r.verdict);
    out.stop = r.timedOut   ? "deadline"
               : r.complete ? "complete"
                            : "shard-failed";
    out.early = !r.complete || r.timedOut ||
                r.verdict == check::Verdict::Inconclusive;
    out.outcomes = sim::outcomesToString(r.outcomes, !r.complete);
    out.respawns = r.respawns;
    // Workers append their own peak RSS as they exit; the job's peak
    // counts the coordinator plus every worker incarnation.
    std::ifstream in(rssFile);
    double kb = 0.0;
    while (in >> kb) out.rssMb += kb / 1024.0;
    std::remove(rssFile.c_str());
  }
  out.rssMb += selfPeakRssMb();
  return out;
}

int runFleetWorker() {
  const int rc = fleet::runWorker(util::kWorkerInFd, util::kWorkerOutFd);
  if (const char* path = std::getenv(kWorkerRssEnv)) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    util::appendLineAtomic(path, std::to_string(ru.ru_maxrss));
  }
  return rc;
}

namespace {

// Child -> parent wire format: "key value" lines; values never hold a
// newline (outcome strings and repair JSON are single-line).
std::string serialize(const JobOutcome& o) {
  std::ostringstream s;
  s << "verdict " << o.verdict << '\n'
    << "stop " << o.stop << '\n'
    << "states " << o.states << '\n'
    << "outcomes " << o.outcomes << '\n'
    << "report " << o.report << '\n'
    << "respawns " << o.respawns << '\n'
    << "early " << (o.early ? 1 : 0) << '\n'
    << "rss_mb " << o.rssMb << '\n';
  return s.str();
}

bool parse(const std::string& text, JobOutcome& o) {
  std::istringstream in(text);
  std::string line;
  int fields = 0;
  while (std::getline(in, line)) {
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) return false;
    const std::string key = line.substr(0, sp);
    const std::string val = line.substr(sp + 1);
    ++fields;
    if (key == "verdict") o.verdict = val;
    else if (key == "stop") o.stop = val;
    else if (key == "states") o.states = std::strtoull(val.c_str(), 0, 10);
    else if (key == "outcomes") o.outcomes = val;
    else if (key == "report") o.report = val;
    else if (key == "respawns") o.respawns = std::atoi(val.c_str());
    else if (key == "early") o.early = val == "1";
    else if (key == "rss_mb") o.rssMb = std::strtod(val.c_str(), nullptr);
    else --fields;
  }
  return fields == 8;
}

bool writeAll(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string compareToExpected(const Workload& w, const JobOutcome& out,
                              const Expected& expected,
                              const std::string& prefix) {
  std::string diff;
  auto check = [&](const std::string& field, const std::string& got) {
    const auto it = expected.find(prefix + "." + field);
    if (it == expected.end()) {
      diff += field + ": no pinned value; ";
    } else if (it->second != got) {
      diff += field + ": got '" + got.substr(0, 120) + "', pinned '" +
              it->second.substr(0, 120) + "'; ";
    }
  };
  check("verdict", out.verdict);
  if (w.kind == Kind::Repair) {
    check("report", out.report);
  } else {
    check("states", std::to_string(out.states));
    check("outcomes", out.outcomes);
  }
  return diff;
}

JobSample submitJob(const Workload& w, const sim::System& sys,
                    const JobContext& ctx, const Expected* expected,
                    const std::string& prefix, double watchdogSeconds) {
  JobSample s;
  int fds[2];
  if (::pipe(fds) != 0) {
    s.failed = true;
    s.note = "pipe failed";
    return s;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    s.failed = true;
    s.note = "fork failed";
    return s;
  }
  if (pid == 0) {
    // Own process group, so a watchdog kill also takes fleet workers.
    ::setpgid(0, 0);
    ::close(fds[0]);
    const std::string payload = serialize(runJob(w, sys, ctx));
    const std::string frame = std::to_string(payload.size()) + "\n" + payload;
    const bool ok = writeAll(fds[1], frame);
    ::close(fds[1]);
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);

  // Read "<len>\n<payload>"; the verdict has arrived once the payload is
  // complete — the child's teardown afterwards is not the user's wait.
  std::string buf;
  std::size_t want = 0;
  bool haveLen = false, complete = false, timedOut = false;
  char chunk[65536];
  while (!complete) {
    const double left = watchdogSeconds - secondsSince(t0);
    if (left <= 0.0) {
      timedOut = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) continue;
    const ssize_t n = ::read(fds[0], chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF before a full payload: the child died
    buf.append(chunk, static_cast<std::size_t>(n));
    if (!haveLen) {
      const std::size_t nl = buf.find('\n');
      if (nl == std::string::npos) continue;
      want = std::strtoull(buf.substr(0, nl).c_str(), nullptr, 10);
      buf.erase(0, nl + 1);
      haveLen = true;
    }
    complete = buf.size() >= want;
  }
  s.verdictSeconds = secondsSince(t0);
  ::close(fds[0]);
  if (timedOut) ::kill(-pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timedOut) ::kill(-pid, SIGKILL);  // stragglers of the group

  if (!complete) {
    s.failed = true;
    s.note = timedOut ? "watchdog: no verdict within " +
                            std::to_string(watchdogSeconds) + " s"
                      : "job process died before its verdict";
    s.out.early = true;
    return s;
  }
  if (!parse(buf.substr(0, want), s.out)) {
    s.failed = true;
    s.mismatch = true;
    s.note = "unparseable job report";
    return s;
  }
  if (s.out.early) {
    s.failed = true;
    s.note = "stopped early (" + s.out.stop + ", verdict " + s.out.verdict +
             ")";
    if (w.kind == Kind::Fleet && s.out.stop == "deadline") {
      s.note += "; a fleet deadline stop with no fault injected is the "
                "known Done/exit race";
    }
    return s;
  }
  if (expected != nullptr) {
    const std::string diff = compareToExpected(w, s.out, *expected, prefix);
    if (!diff.empty()) {
      s.failed = true;
      s.mismatch = true;
      s.note = "differs from pinned: " + diff;
    }
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace ftbench
