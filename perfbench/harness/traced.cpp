// The traced loop: the exploration engine's expansion order, driven
// from the benchmark so a span can sit around every layer call.
//
// Sequential mode mirrors sim::explore() step for step — DFS with slot
// reuse, source-DPOR with sleep sets, wakeup masks, the lazy cycle
// proviso and the visibility widening — so it admits exactly the
// engine's states.  Parallel mode (unreduced only) seeds a breadth-first
// frontier and lets each thread run the same DFS over a shared
// util::ShardedStateSet; whichever thread wins a key's insert expands
// it, so every reachable state is admitted once.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.h"
#include "fleet/protocol.h"
#include "sim/dpor.h"
#include "sim/shard.h"
#include "util/frame.h"
#include "util/keystore.h"
#include "util/sharded_set.h"

namespace ftbench {

namespace {

using Elem = std::pair<sim::ProcId, sim::Reg>;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Edges per thread whose spans are kept in memory (totals cover every
/// call); enough to see the layer pattern without storing ~10^7 spans.
constexpr std::uint64_t kSpanEdges = 4096;

/// Per-thread span and total recorder.
class Recorder {
 public:
  Recorder(bool timed, int thread) : timed_(timed), thread_(thread) {}

  void beginEdge() {
    ++edge_;
    sampling_ = timed_ && edge_ <= kSpanEdges;
    if (sampling_) {
      edgeSpan_ = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(Span{edge_, -1, -1, static_cast<std::int16_t>(thread_),
                            nowNs(), 0});
    }
  }
  void endEdge() {
    if (sampling_) spans_[static_cast<std::size_t>(edgeSpan_)].endNs = nowNs();
    sampling_ = false;
  }

  std::int64_t start() const { return timed_ ? nowNs() : 0; }
  void record(Layer l, std::int64_t t0) {
    if (!timed_) {
      ++totals.calls[l];
      return;
    }
    const std::int64_t t1 = nowNs();
    totals.ns[l] += static_cast<std::uint64_t>(t1 - t0);
    ++totals.calls[l];
    if (sampling_) {
      spans_.push_back(Span{edge_, edgeSpan_, static_cast<std::int16_t>(l),
                            static_cast<std::int16_t>(thread_), t0, t1});
    }
  }

  std::vector<Span>& spans() { return spans_; }

  LayerTotals totals;

 private:
  bool timed_;
  int thread_;
  std::uint64_t edge_ = 0;
  bool sampling_ = false;
  std::int32_t edgeSpan_ = -1;
  std::vector<Span> spans_;
};

struct InsertResult {
  bool fresh = false;
  std::uint32_t id = util::DeltaKeyStore::kNoId;
};

/// The sequential engine's exact tier.
struct StoreVisited {
  util::DeltaKeyStore store;
  InsertResult insert(std::string_view key) {
    const auto r = store.insert(key, util::DeltaKeyStore::kNoId);
    return {r.fresh, r.id};
  }
  std::uint64_t bytes() const { return store.bytes(); }
};

/// Mutex-sharded set shared by the parallel threads.
struct ShardedVisited {
  util::ShardedStateSet& set;
  InsertResult insert(std::string_view key) { return {set.insert(key)}; }
  std::uint64_t bytes() const { return set.keyBytes(); }
};

struct Frame {
  sim::Config cfg;
  std::vector<Elem> moves;
  std::vector<Elem> sleep;
  std::size_t next = 0;
  std::uint32_t id = util::DeltaKeyStore::kNoId;
  bool reduced = false;
};

template <class Visited>
class TracedDfs {
 public:
  TracedDfs(const sim::System& sys, sim::ReductionMode mode, Visited& visited,
            Recorder& rec)
      : sys_(sys), visited_(visited), rec_(rec) {
    if (mode == sim::ReductionMode::sourceDpor) {
      dctx_ = std::make_unique<sim::detail::DporContext>(sys);
      sleepOn_ = true;
    }
  }

  /// Admit `init` (unless already known) and explore everything below.
  void runRoot(const sim::Config& init) {
    stack_.resize(std::max<std::size_t>(stack_.size(), 1));
    stack_[0].cfg = init;
    sleepScratch_.clear();
    depth_ = 0;
    rec_.beginEdge();
    enter(/*hasParent=*/false);
    rec_.endEdge();
    drain();
  }

  /// Explore below an already-admitted, non-terminal state (parallel
  /// seeds; unreduced only).
  void runSeed(const sim::Config& seed) {
    stack_.resize(std::max<std::size_t>(stack_.size(), 1));
    Frame& f = stack_[0];
    f.cfg = seed;
    const std::int64_t t0 = rec_.start();
    sim::detail::enabledMovesInto(f.cfg, f.moves);
    rec_.record(kMoves, t0);
    f.sleep.clear();
    f.next = 0;
    f.reduced = false;
    ++rec_.totals.expansions;
    rec_.totals.movesExplored += f.moves.size();
    depth_ = 1;
    drain();
  }

  /// Admit one successor and report whether it needs expanding, without
  /// pushing it (breadth-first seeding).
  bool admitOnly(const sim::Config& cfg) {
    const std::int64_t tk = rec_.start();
    const bool terminal = cfg.behavioralKeyInto(keyBuf_, &retvals_);
    rec_.record(kKey, tk);
    rec_.totals.keyBytes += keyBuf_.size();
    const std::int64_t tv = rec_.start();
    const InsertResult r = visited_.insert(keyBuf_);
    rec_.record(r.fresh ? kInsert : kHit, tv);
    if (!r.fresh) return false;
    admitted(cfg, terminal);
    return !terminal;
  }

  std::uint64_t states = 0;
  std::set<std::vector<sim::Value>> outcomes;
  int maxCs = 0;

 private:
  void admitted(const sim::Config& cfg, bool terminal) {
    ++states;
    const int occ = sim::detail::csOccupancy(sys_, cfg);
    if (occ > maxCs) maxCs = occ;
    if (terminal) outcomes.insert(retvals_);
  }

  bool enter(bool hasParent) {
    Frame& f = stack_[depth_];
    const std::int64_t tk = rec_.start();
    const bool terminal = f.cfg.behavioralKeyInto(keyBuf_, &retvals_);
    rec_.record(kKey, tk);
    rec_.totals.keyBytes += keyBuf_.size();
    const std::int64_t tv = rec_.start();
    const InsertResult r = visited_.insert(keyBuf_);
    rec_.record(r.fresh ? kInsert : kHit, tv);
    if (!r.fresh) {
      if (hasParent && stack_[depth_ - 1].reduced) {
        Frame& par = stack_[depth_ - 1];
        const std::int64_t td = rec_.start();
        dctx_->widen(par.cfg, par.sleep, par.moves);
        rec_.record(kDpor, td);
        par.reduced = false;
        ++rec_.totals.provisoWidenings;
      }
      if (sleepOn_ && sleptMasks_[r.id] != 0) {
        awake_.clear();
        const std::int64_t td = rec_.start();
        sleptMasks_[r.id] =
            dctx_->reawaken(f.cfg, sleptMasks_[r.id], sleepScratch_, awake_);
        rec_.record(kDpor, td);
        if (!awake_.empty()) {
          f.moves.assign(awake_.begin(), awake_.end());
          f.sleep.assign(sleepScratch_.begin(), sleepScratch_.end());
          f.next = 0;
          f.id = r.id;
          f.reduced = false;
          ++rec_.totals.expansions;
          rec_.totals.movesExplored += f.moves.size();
          ++depth_;
          return true;
        }
      }
      return false;
    }
    if (sleepOn_) sleptMasks_.push_back(0);
    admitted(f.cfg, terminal);
    if (terminal) return false;
    f.next = 0;
    f.id = r.id;
    f.reduced = false;
    if (dctx_) {
      std::uint64_t sleptBits = 0;
      const std::int64_t td = rec_.start();
      dctx_->selectMoves(f.cfg, sleepScratch_, f.moves, f.reduced, sleptBits);
      rec_.record(kDpor, td);
      if (sleptBits != 0) {
        sleptMasks_[r.id] = sleptBits;
        rec_.totals.sleepPruned +=
            static_cast<std::uint64_t>(__builtin_popcountll(sleptBits));
      }
      ++(f.reduced ? rec_.totals.singletons : rec_.totals.full);
      f.sleep.assign(sleepScratch_.begin(), sleepScratch_.end());
    } else {
      const std::int64_t tm = rec_.start();
      sim::detail::enabledMovesInto(f.cfg, f.moves);
      rec_.record(kMoves, tm);
      f.sleep.clear();
    }
    ++rec_.totals.expansions;
    rec_.totals.movesExplored += f.moves.size();
    ++depth_;
    return true;
  }

  void drain() {
    while (depth_ > 0) {
      if (depth_ == stack_.size()) stack_.emplace_back();
      Frame& top = stack_[depth_ - 1];
      if (top.next >= top.moves.size()) {
        --depth_;
        continue;
      }
      const Elem elem = top.moves[top.next++];
      Frame& child = stack_[depth_];
      rec_.beginEdge();
      const std::int64_t tc = rec_.start();
      child.cfg = top.cfg;
      rec_.record(kCopy, tc);
      const std::int64_t te = rec_.start();
      const bool stepped =
          sim::execElem(sys_, child.cfg, elem.first, elem.second).has_value();
      rec_.record(kExec, te);
      if (!stepped) {
        std::fprintf(stderr, "traced loop: move produced no step\n");
        std::abort();
      }
      if (top.reduced &&
          (elem.second == sim::kNoReg || elem.second == sim::kCrashReg) &&
          sim::inCriticalSection(sys_, top.cfg, elem.first) !=
              sim::inCriticalSection(sys_, child.cfg, elem.first)) {
        const std::int64_t td = rec_.start();
        dctx_->widen(top.cfg, top.sleep, top.moves);
        rec_.record(kDpor, td);
        top.reduced = false;
        ++rec_.totals.provisoWidenings;
      }
      if (sleepOn_) {
        const std::int64_t td = rec_.start();
        dctx_->childSleep(top.cfg, top.sleep, top.moves.data(), top.next - 1,
                          elem, sleepScratch_);
        rec_.record(kDpor, td);
      } else {
        sleepScratch_.clear();
      }
      enter(/*hasParent=*/true);
      rec_.endEdge();
    }
  }

  const sim::System& sys_;
  Visited& visited_;
  Recorder& rec_;
  std::unique_ptr<sim::detail::DporContext> dctx_;
  bool sleepOn_ = false;
  std::vector<Frame> stack_;
  std::size_t depth_ = 0;
  std::string keyBuf_;
  std::vector<sim::Value> retvals_;
  std::vector<Elem> sleepScratch_;
  std::vector<Elem> awake_;
  std::vector<std::uint64_t> sleptMasks_;
};

/// Breadth-first seeding target for the parallel mode: enough subtrees
/// that threads pulling them dynamically stay busy.
constexpr std::size_t kSeedFrontier = 512;

}  // namespace

const char* layerName(int layer) {
  switch (layer) {
    case kMoves: return "sim.moves";
    case kDpor: return "sim.dpor";
    case kCopy: return "sim.copy";
    case kExec: return "sim.exec";
    case kKey: return "sim.key";
    case kInsert: return "util.visited.insert";
    case kHit: return "util.visited.hit";
    default: return "edge";
  }
}

void LayerTotals::add(const LayerTotals& o) {
  for (int l = 0; l < kLayerCount; ++l) {
    ns[l] += o.ns[l];
    calls[l] += o.calls[l];
  }
  keyBytes += o.keyBytes;
  expansions += o.expansions;
  movesExplored += o.movesExplored;
  singletons += o.singletons;
  full += o.full;
  sleepPruned += o.sleepPruned;
  provisoWidenings += o.provisoWidenings;
}

double clockOverheadNs() {
  constexpr int kReps = 200'000;
  std::int64_t sum = 0;
  for (int i = 0; i < kReps; ++i) {
    const std::int64_t t0 = nowNs();
    sum += nowNs() - t0;
  }
  return static_cast<double>(sum) / kReps;
}

TracedResult tracedExplore(const sim::System& sys, const TracedOptions& opts) {
  TracedResult res;
  const sim::Config init = sim::initialConfig(sys);
  const std::int64_t t0 = nowNs();
  if (opts.threads <= 1) {
    StoreVisited visited;
    Recorder rec(opts.timed, 0);
    TracedDfs<StoreVisited> dfs(sys, opts.reduction, visited, rec);
    dfs.runRoot(init);
    res.wallSeconds = static_cast<double>(nowNs() - t0) * 1e-9;
    res.states = dfs.states;
    res.outcomes = std::move(dfs.outcomes);
    res.maxCsOccupancy = dfs.maxCs;
    res.visitedBytes = visited.bytes();
    res.totals = rec.totals;
    res.spans = std::move(rec.spans());
    return res;
  }

  if (opts.reduction != sim::ReductionMode::none) {
    std::fprintf(stderr, "traced loop: parallel mode is unreduced only\n");
    std::abort();
  }
  util::ShardedStateSet set(std::clamp(opts.threads * 16, 64, 512));
  ShardedVisited visited{set};
  const int threads = opts.threads;
  std::vector<std::unique_ptr<Recorder>> recs;
  std::vector<std::unique_ptr<TracedDfs<ShardedVisited>>> dfs;
  for (int t = 0; t < threads; ++t) {
    recs.push_back(std::make_unique<Recorder>(opts.timed, t));
    dfs.push_back(std::make_unique<TracedDfs<ShardedVisited>>(
        sys, opts.reduction, visited, *recs.back()));
  }

  // Breadth-first seeding on thread 0's recorder.
  std::deque<sim::Config> frontier;
  {
    Recorder& rec = *recs[0];
    TracedDfs<ShardedVisited>& d = *dfs[0];
    rec.beginEdge();
    if (d.admitOnly(init)) frontier.push_back(init);
    rec.endEdge();
    std::vector<Elem> moves;
    while (!frontier.empty() && frontier.size() < kSeedFrontier) {
      const sim::Config cur = std::move(frontier.front());
      frontier.pop_front();
      const std::int64_t tm = rec.start();
      sim::detail::enabledMovesInto(cur, moves);
      rec.record(kMoves, tm);
      ++rec.totals.expansions;
      rec.totals.movesExplored += moves.size();
      for (const Elem& m : moves) {
        rec.beginEdge();
        const std::int64_t tc = rec.start();
        sim::Config child = cur;
        rec.record(kCopy, tc);
        const std::int64_t te = rec.start();
        sim::execElem(sys, child, m.first, m.second);
        rec.record(kExec, te);
        if (d.admitOnly(child)) frontier.push_back(std::move(child));
        rec.endEdge();
      }
    }
  }
  std::vector<sim::Config> seeds(std::make_move_iterator(frontier.begin()),
                                 std::make_move_iterator(frontier.end()));
  std::atomic<std::size_t> nextSeed{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (;;) {
        const std::size_t i = nextSeed.fetch_add(1);
        if (i >= seeds.size()) break;
        dfs[static_cast<std::size_t>(t)]->runSeed(seeds[i]);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  res.wallSeconds = static_cast<double>(nowNs() - t0) * 1e-9;
  for (int t = 0; t < threads; ++t) {
    TracedDfs<ShardedVisited>& d = *dfs[static_cast<std::size_t>(t)];
    res.states += d.states;
    res.outcomes.insert(d.outcomes.begin(), d.outcomes.end());
    res.maxCsOccupancy = std::max(res.maxCsOccupancy, d.maxCs);
    res.totals.add(recs[static_cast<std::size_t>(t)]->totals);
    // Parent links are thread-local indices; rebase them on merge.
    const auto base = static_cast<std::int32_t>(res.spans.size());
    for (Span s : recs[static_cast<std::size_t>(t)]->spans()) {
      if (s.parent >= 0) s.parent += base;
      res.spans.push_back(s);
    }
  }
  res.visitedBytes = visited.bytes();
  return res;
}

ShardTrace tracedShards(const sim::System& sys, bool timed) {
  constexpr int kShards = 2;
  constexpr std::size_t kStepBudget = 64;  // expansions per step() slice
  ShardTrace tr;
  std::vector<std::unique_ptr<sim::ShardExplorer>> shards;
  for (int i = 0; i < kShards; ++i) {
    shards.push_back(std::make_unique<sim::ShardExplorer>(sys, i, kShards));
    shards.back()->seedInitial();
  }
  std::vector<std::vector<std::string>> inbox(kShards);
  std::uint64_t seq = 0;
  std::uint64_t callbackNs = 0;
  const sim::ShardExplorer::ForwardFn forward =
      [&](int owner, const sim::SchedPath& path) {
        const std::int64_t c0 = timed ? nowNs() : 0;
        fleet::ForwardMsg m;
        m.seq = ++seq;
        m.path = path;
        inbox[static_cast<std::size_t>(owner)].push_back(
            fleet::encodeForward(m));
        if (timed) {
          const auto d = static_cast<std::uint64_t>(nowNs() - c0);
          tr.encodeNs += d;
          callbackNs += d;
        }
        ++tr.forwarded;
      };
  const std::int64_t t0 = nowNs();
  std::vector<std::string> batch;
  for (bool progress = true; progress;) {
    progress = false;
    for (int i = 0; i < kShards; ++i) {
      callbackNs = 0;
      const std::int64_t s0 = timed ? nowNs() : 0;
      const std::size_t n = shards[static_cast<std::size_t>(i)]->step(
          kStepBudget, forward);
      if (timed) {
        tr.stepNs += static_cast<std::uint64_t>(nowNs() - s0) - callbackNs;
        ++tr.stepCalls;
      }
      progress = progress || n > 0;
    }
    for (int j = 0; j < kShards; ++j) {
      batch.swap(inbox[static_cast<std::size_t>(j)]);
      for (const std::string& wire : batch) {
        const std::int64_t d0 = timed ? nowNs() : 0;
        util::FrameDecoder dec;
        dec.feed(wire);
        util::Frame f;
        std::optional<fleet::ForwardMsg> m;
        if (dec.next(f) == util::FrameDecoder::Status::Frame) {
          m = fleet::decodeForward(f.payload);
        }
        if (!m) {
          std::fprintf(stderr, "traced shards: frame failed to decode\n");
          std::abort();
        }
        if (timed) {
          const std::int64_t r0 = nowNs();
          tr.decodeNs += static_cast<std::uint64_t>(r0 - d0);
          const bool replayed = sim::replayPath(sys, m->path).has_value();
          const std::int64_t o0 = nowNs();
          tr.replayNs += static_cast<std::uint64_t>(o0 - r0);
          if (!replayed) std::abort();
          shards[static_cast<std::size_t>(j)]->offer(m->path);
          tr.offerNs += static_cast<std::uint64_t>(nowNs() - o0);
        } else {
          shards[static_cast<std::size_t>(j)]->offer(m->path);
        }
        progress = true;
      }
      batch.clear();
    }
  }
  tr.wallSeconds = static_cast<double>(nowNs() - t0) * 1e-9;
  for (int i = 0; i < kShards; ++i) {
    const sim::ShardExplorer& s = *shards[static_cast<std::size_t>(i)];
    tr.admitted[i] = s.stats().admitted;
    tr.outcomes.insert(s.outcomes().begin(), s.outcomes().end());
  }
  return tr;
}

bool writeSpans(const std::string& path, const std::string& label,
                const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"run\":\"" << label << "\",\"edge\":" << s.edge
        << ",\"thread\":" << s.thread << ",\"name\":\"" << layerName(s.name)
        << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.startNs
        << ",\"end_ns\":" << s.endNs << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace ftbench
