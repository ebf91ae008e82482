// Progress tracking (§2.3, §3.3).
//
// Workers describe the events they create and retire as (pointstamp, delta) updates.
// Updates are buffered per worker for the duration of a callback and flushed atomically;
// a flush both applies to the local ProgressTracker and (in distributed mode) is broadcast
// to every process through a ProgressRouter. Because a consumed event's -1 always travels
// in the same flush as (or later than) the +1s it caused, and per-pair channels are FIFO,
// every local frontier is conservative with respect to the global frontier — the safety
// property of §3.3 / [4].
//
// Local occurrence counts may be transiently negative when a consumer's -1 overtakes the
// producer's +1 through a different channel; only strictly positive counts make a
// pointstamp active, which the protocol paper shows is safe.
//
// Frontier queries are evaluated by scanning the (small) active set against the summary
// matrix rather than by maintaining incremental precursor counts; the observable semantics
// are identical to §2.3 and the scan is O(active²) with active ~ logical locations.

#ifndef SRC_CORE_PROGRESS_H_
#define SRC_CORE_PROGRESS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "src/base/event_count.h"
#include "src/base/logging.h"
#include "src/core/graph.h"
#include "src/core/location.h"
#include "src/ser/bytes.h"

namespace naiad {

struct ProgressUpdate {
  Pointstamp point;
  int64_t delta = 0;

  friend bool operator==(const ProgressUpdate&, const ProgressUpdate&) = default;

  void Encode(ByteWriter& w) const {
    point.Encode(w);
    w.WriteI64(delta);
  }
  bool Decode(ByteReader& r) {
    if (!point.Decode(r)) {
      return false;
    }
    delta = r.ReadI64();
    return r.ok();
  }
};

// Per-worker accumulation of deltas within a callback / dispatch step. Take() combines
// updates with equal pointstamps and orders positive deltas before negative ones, as §3.3
// requires of broadcast updates.
//
// The accumulator is a small open-addressed (linear-probing) table sized to the active
// pointstamp set — Add() is the per-bundle hot path (one call per routed bundle and per
// delivered callback), so it must not pay an ordered-map node allocation and pointer
// chase per delta. The table only ever grows (entries are combined in place and cleared
// wholesale by Take()), so probe chains never contain tombstones. Take() sorts each sign
// group, preserving the ordered-map output order the fault-injection harness replays.
class ProgressBuffer {
 public:
  void Add(const Pointstamp& p, int64_t delta) {
    if (delta == 0) {
      return;
    }
    // Consecutive deltas overwhelmingly hit the same pointstamp (a flush accumulates one
    // delta per bundle of the same (connector, time), and every delivered bundle retires
    // against the pointstamp it arrived on), so a one-entry cache skips the hash.
    if (last_ < slots_.size()) {
      Slot& s = slots_[last_];
      if (s.used && s.point == p) {
        NoteCombine(s.delta, delta);
        s.delta += delta;
        return;
      }
    }
    if (slots_.empty()) {
      slots_.resize(kInitialSlots);
    }
    const uint64_t h = HashOf(p);
    size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.hash = h;
        s.point = p;
        s.delta = delta;
        ++used_;
        ++nonzero_;  // delta != 0 (checked on entry)
        last_ = i;
        if (used_ * 4 >= slots_.size() * 3) {
          Grow();  // invalidates last_
        }
        return;
      }
      if (s.hash == h && s.point == p) {
        NoteCombine(s.delta, delta);
        s.delta += delta;
        last_ = i;
        return;
      }
      i = (i + 1) & mask;
    }
  }

  // O(1): Add() maintains the count of slots with a nonzero delta (slots whose deltas
  // cancelled back to zero stay occupied but are not pending output). This sits on the
  // per-item FlushProgress path, so it must not scan the table.
  bool Empty() const { return nonzero_ == 0; }

  std::vector<ProgressUpdate> Take() {
    std::vector<ProgressUpdate> out;
    out.reserve(used_);
    for (const Slot& s : slots_) {
      if (s.used && s.delta > 0) {
        out.push_back(ProgressUpdate{s.point, s.delta});
      }
    }
    const size_t positives = out.size();
    for (Slot& s : slots_) {
      if (s.used && s.delta < 0) {
        out.push_back(ProgressUpdate{s.point, s.delta});
      }
      s.used = false;
    }
    used_ = 0;
    nonzero_ = 0;
    last_ = static_cast<size_t>(-1);
    // Deterministic output (the ordered-map order): sort within each sign group.
    auto by_point = [](const ProgressUpdate& a, const ProgressUpdate& b) {
      return a.point < b.point;
    };
    std::sort(out.begin(), out.begin() + static_cast<ptrdiff_t>(positives), by_point);
    std::sort(out.begin() + static_cast<ptrdiff_t>(positives), out.end(), by_point);
    return out;
  }

 private:
  static constexpr size_t kInitialSlots = 16;  // power of two

  struct Slot {
    Pointstamp point;
    uint64_t hash = 0;
    int64_t delta = 0;
    bool used = false;
  };

  // One multiply-accumulate per coordinate and a single final mix — cheaper than the
  // general Pointstamp::Hash and strong enough for a small power-of-two table.
  static uint64_t HashOf(const Pointstamp& p) {
    uint64_t h = p.time.epoch;
    for (uint64_t c : p.time.coords) {
      h = h * 0x9e3779b97f4a7c15ull + c;
    }
    return Mix64(h ^ ((uint64_t(p.loc.id) << 1) | uint64_t(p.loc.kind)));
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (Slot& s : old) {
      if (!s.used) {
        continue;
      }
      size_t i = s.hash & mask;
      while (slots_[i].used) {
        i = (i + 1) & mask;
      }
      slots_[i] = std::move(s);
    }
    last_ = static_cast<size_t>(-1);
  }

  // Tracks the nonzero-delta slot count across an in-place combine (Empty()'s O(1)
  // view). Branchless: +1 when 0 -> nonzero, -1 when nonzero -> 0 (unsigned wrap is
  // fine — the two bools differ by at most one and nonzero_ > 0 whenever it decrements).
  void NoteCombine(int64_t old_delta, int64_t add) {
    nonzero_ += static_cast<size_t>(old_delta == 0) -
                static_cast<size_t>(old_delta + add == 0);
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
  size_t nonzero_ = 0;  // slots with delta != 0; Empty() == (nonzero_ == 0)
  size_t last_ = static_cast<size_t>(-1);  // slot touched by the previous Add
};

// Tracker accounting, published into obs::ProcessMetrics and ClusterStats::occ_map_peak.
struct ProgressTrackerStats {
  uint64_t query_scans = 0;      // frontier queries that walked the occurrence map
  uint64_t query_memo_hits = 0;  // frontier queries answered by the version-stamped memo
  uint64_t occ_map_peak = 0;     // max entries in the occurrence map
};

// One global set of pointstamps, exactly §3.3: every update lands in a single occurrence
// map, and a frontier query the memo cannot answer scans the whole active set.
class ProgressTracker {
 public:
  ProgressTracker(const LogicalGraph* graph, EventCount* event)
      : graph_(graph), event_(event) {}

  void Apply(std::span<const ProgressUpdate> updates) {
    if (updates.empty()) {
      return;
    }
    EventCount::Publication pub(*event_);  // notifies once the new counts are visible
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const ProgressUpdate& u : updates) {
        int64_t& c = counts_[u.point];
        c += u.delta;
        if (c == 0) {
          counts_.erase(u.point);
        }
      }
      stats_.occ_map_peak = std::max<uint64_t>(stats_.occ_map_peak, counts_.size());
      version_.fetch_add(1, std::memory_order_release);
    }
  }

  // §2.3: a notification with (projected) pointstamp p may be delivered when no *other*
  // active pointstamp could-result-in p. Before the graph freezes (possible in distributed
  // mode, when a peer's progress frames race this process's startup) nothing is
  // deliverable — the conservative answer.
  bool CanDeliver(const Pointstamp& p) const {
    if (!graph_->frozen()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    return !BlockedLocked(p, /*exclude_self=*/true);
  }

  // True when no active pointstamp (including p itself) could-result-in p; i.e. the global
  // frontier has passed p. Used by output probes.
  bool FrontierPassed(const Pointstamp& p) const {
    if (!graph_->frozen()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    return !BlockedLocked(p, /*exclude_self=*/false);
  }

  bool Empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_.empty();
  }

  int64_t Count(const Pointstamp& p) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find(p);
    return it == counts_.end() ? 0 : it->second;
  }

  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  // Nonzero occurrence counts in Pointstamp order; the checkpoint format
  // (src/ft/checkpoint.cc) stores this list as is.
  std::vector<std::pair<Pointstamp, int64_t>> ActiveSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {counts_.begin(), counts_.end()};
  }

  ProgressTrackerStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  // Blocks the calling (non-worker) thread until `pred`-style conditions hold; used by
  // Join and by output probes. Every tracker change notifies the event count, and so does
  // cancellation; the timeout backstops predicates over state whose setters do not (a
  // cluster recovery request, which only the recovery path raises).
  template <typename Pred>
  void WaitFor(Pred pred) const {
    while (true) {
      EventCount::Ticket ticket = event_->PrepareWait();
      if (pred()) {
        return;
      }
      event_->CommitWait(ticket, std::chrono::microseconds(1000));
    }
  }

  const LogicalGraph* graph() const { return graph_; }

 private:
  struct QueryMemo {
    // A memoized verdict is valid while version_ equals its stamp; kUnset never does.
    static constexpr uint64_t kUnset = ~uint64_t{0};
    uint64_t can_stamp = kUnset;
    uint64_t passed_stamp = kUnset;
    bool can = false;
    bool passed = false;
  };

  static constexpr size_t kMemoLimit = 4096;  // cleared wholesale on overflow

  // One frontier query, memoized per (pointstamp, version_): a repeat query with no
  // intervening Apply skips the O(active) scan. Apply bumps version_ under mu_, so a
  // relaxed load here sees every bump that changed counts_.
  bool BlockedLocked(const Pointstamp& p, bool exclude_self) const {
    const uint64_t stamp = version_.load(std::memory_order_relaxed);
    if (memo_.size() >= kMemoLimit) {
      memo_.clear();
    }
    QueryMemo& m = memo_[p];
    uint64_t& slot_stamp = exclude_self ? m.can_stamp : m.passed_stamp;
    bool& slot_verdict = exclude_self ? m.can : m.passed;
    if (slot_stamp == stamp) {
      ++stats_.query_memo_hits;
      return slot_verdict;
    }
    ++stats_.query_scans;
    bool blocked = false;
    for (const auto& [q, count] : counts_) {
      if (count > 0 && (!exclude_self || q != p) && graph_->CouldResultIn(q, p)) {
        blocked = true;
        break;
      }
    }
    slot_stamp = stamp;
    slot_verdict = blocked;
    return blocked;
  }

  const LogicalGraph* graph_;
  EventCount* event_;
  mutable std::mutex mu_;
  std::map<Pointstamp, int64_t> counts_;  // nonzero occurrence counts (§3.3)
  // Mutable: queries update the memo and stats, under mu_.
  mutable std::map<Pointstamp, QueryMemo> memo_;
  mutable ProgressTrackerStats stats_;
  std::atomic<uint64_t> version_{0};
};

// Where a worker's flushed updates go. The local router applies them directly; the
// distributed routers in src/progress add broadcast and accumulation (§3.3).
//
// Wake-up rule for accumulating routers: an update held in a buffer is somebody's flush
// obligation. A worker that holds its own flush (BroadcastFromWorker) discharges it at
// its idle edge (OnWorkerIdle) before it parks; a hold made on any other thread — a
// network receiver, an input driver — bumps held_generation() and notifies the event
// count (inside an EventCount::Publication), so a parked worker or host wakes to flush it
// instead of sleeping out a timeout.
class ProgressRouter {
 public:
  virtual ~ProgressRouter() = default;
  // Must (eventually) apply `updates` to every process's tracker, including the caller's.
  virtual void Broadcast(std::vector<ProgressUpdate> updates) = 0;
  // The same, called from a worker's own scheduling pass (see the rule above).
  virtual void BroadcastFromWorker(std::vector<ProgressUpdate> updates) {
    Broadcast(std::move(updates));
  }
  // Called when a worker runs out of work; accumulating routers flush held updates here.
  // Returns true iff that released a hold made on another thread than a worker's (the
  // work a missed wakeup would have left waiting; see WakeupAudit).
  virtual bool OnWorkerIdle() { return false; }
  // Bumped before the notify each time a non-worker hold starts; idle workers and hosts
  // fold it into their park check.
  virtual uint64_t held_generation() const { return 0; }
};

class LocalProgressRouter final : public ProgressRouter {
 public:
  explicit LocalProgressRouter(ProgressTracker* tracker) : tracker_(tracker) {}
  void Broadcast(std::vector<ProgressUpdate> updates) override {
    tracker_->Apply(updates);
  }

 private:
  ProgressTracker* tracker_;
};

}  // namespace naiad

#endif  // SRC_CORE_PROGRESS_H_
