// Eventcount synchronization primitive (Reed & Kanodia [37], as used in §3.3).
//
// A worker that finds no runnable events reads the count (PrepareWait), re-checks its work
// sources, and then blocks in CommitWait unless the count advanced in between. Producers
// advance the count and wake either every waiter (NotifyAll — used for progress-frontier
// changes that may unblock any worker) or one waiter (NotifyOne — used for targeted message
// delivery). This avoids the lost-wakeup race without holding a lock around the work check.
//
// Wake-up contract: whoever makes work visible — a queued item, a tracker change, or a
// progress update an accumulator decided to hold — notifies after publishing it. A held
// progress buffer is therefore somebody's wake-up obligation, never a timer's. The wait
// timeout is a liveness backstop only: a park that times out and is followed by a pass
// that finds work is a missed wakeup (WakeupAudit below), counted in
// ClusterStats::missed_wakeups and Controller::missed_wakeups. A nonzero count is a bug,
// and the tests assert it stays zero.
//
// Producers of work a parked thread's pass can find open a Publication around the
// publish-then-notify pair. That is what lets the audit tell a missing notify from a late
// one: work found while some publication is still open has a notify on its way.

#ifndef SRC_BASE_EVENT_COUNT_H_
#define SRC_BASE_EVENT_COUNT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace naiad {

class EventCount {
 public:
  using Ticket = uint64_t;

  // Snapshot the generation before re-checking work predicates.
  Ticket PrepareWait() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

  // Blocks until the generation advances past `ticket` (returns immediately if it already
  // has), or until `timeout` passes. Returns true iff the wait timed out with no notify
  // since the ticket, i.e. the backstop, not a producer, ended the park.
  bool CommitWait(Ticket ticket, std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return !cv_.wait_for(lock, timeout, [&] { return epoch_ != ticket; });
  }

  void NotifyAll() {
    Advance(/*closes_publication=*/false);
    cv_.notify_all();
  }

  void NotifyOne() {
    Advance(/*closes_publication=*/false);
    cv_.notify_one();
  }

  // One producer's publish-then-notify. Open it before the work becomes visible; closing
  // it (at scope exit) notifies every waiter, unless the producer found the work already
  // has a waker (set_notify(false)). Costs one atomic add over a plain NotifyAll.
  class Publication {
   public:
    // Opened before the publish, so an audit that sees the published state also sees
    // the publication open, or already closed by its notify.
    explicit Publication(EventCount& ev) : ev_(ev) { ++ev_.open_; }
    ~Publication() {
      if (notify_) {
        ev_.Advance(/*closes_publication=*/true);
        ev_.cv_.notify_all();
      } else {
        --ev_.open_;
      }
    }
    void set_notify(bool notify) { notify_ = notify; }
    Publication(const Publication&) = delete;
    Publication& operator=(const Publication&) = delete;

   private:
    EventCount& ev_;
    bool notify_ = true;
  };

 private:
  friend class WakeupAudit;

  // The calling thread's own notifies on the one event count it audits (WakeupAudit).
  // Zero-initialized like every thread_local.
  struct OwnNotifies {
    const EventCount* ev;
    uint64_t n;
  };
  static inline thread_local OwnNotifies own_;

  void Advance(bool closes_publication) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
      if (closes_publication) {
        // Under mu_, so the audit never sees the epoch advanced and the publication still
        // open, or the reverse.
        --open_;
      }
    }
    if (own_.ev == this) {
      ++own_.n;
    }
  }

  // True iff no notify but the caller's own `own` ones arrived since `ticket` and no
  // publication is open: any work found now was published without a notify.
  bool QuietSince(Ticket ticket, uint64_t own) const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_ - ticket <= own && open_ == 0;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;
  std::atomic<uint64_t> open_{0};  // open Publications
};

// Missed-wakeup detector for one parking thread (the wake-up contract above). Park()
// replaces CommitWait; after the next pass, Missed(found_work) is true iff the park timed
// out, that pass found work (ran an item or flushed another thread's held progress), no
// other thread has notified since the park's ticket, and no publication is open — i.e.
// the work was published with no notify. Work that lands just as the timeout fires is not
// counted: its producer's publication is still open, or its notify already arrived.
class WakeupAudit {
 public:
  explicit WakeupAudit(EventCount& ev) : ev_(ev) { EventCount::own_ = {&ev, 0}; }

  void Park(EventCount::Ticket ticket, std::chrono::microseconds timeout) {
    timed_out_ = ev_.CommitWait(ticket, timeout);
    ticket_ = ticket;
    own_at_park_ = EventCount::own_.n;
  }

  // Judges the first pass after a park; later calls return false until the next park.
  bool Missed(bool found_work) {
    if (!timed_out_) {
      return false;
    }
    timed_out_ = false;
    return found_work && ev_.QuietSince(ticket_, EventCount::own_.n - own_at_park_);
  }

 private:
  EventCount& ev_;
  EventCount::Ticket ticket_ = 0;
  uint64_t own_at_park_ = 0;
  bool timed_out_ = false;
};

}  // namespace naiad

#endif  // SRC_BASE_EVENT_COUNT_H_
