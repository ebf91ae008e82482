#include "src/core/worker.h"

#include <algorithm>
#include <chrono>

#include "src/core/controller.h"

namespace naiad {

namespace {

// Host park bound. Every producer notifies after publishing (the EventCount wake-up
// contract), so this only backstops liveness: a park it ends that then finds work is a
// missed wakeup, counted by WakeupAudit and asserted zero by the tests.
constexpr auto kIdleWait = std::chrono::microseconds(500);

}  // namespace

Worker::Worker(Controller* ctl, uint32_t local_index)
    : ctl_(ctl),
      local_index_(local_index),
      global_index_(ctl->config().process_id * ctl->config().workers_per_process +
                    local_index) {
  metrics_ = ctl->obs().metrics().worker(local_index);
  obs_time_ = metrics_ != nullptr;
}

void Worker::EnqueueExternal(std::unique_ptr<WorkItemBase> item) {
  if (obs_time_) {
    item->set_enqueue_ns(obs::MonotonicNs());
  }
  EventCount::Publication pub(ctl_->event());
  inbox_.Push(std::move(item));
}

void Worker::EnqueueLocal(std::unique_ptr<WorkItemBase> item) {
  if (obs_time_) {
    item->set_enqueue_ns(obs::MonotonicNs());
  }
  local_.push_back(std::move(item));
}

void Worker::RunNested(std::unique_ptr<WorkItemBase> item) {
  ++reentry_depth_;
  // Preserve the enclosing callback's context across the nested delivery. A nested
  // delivery is an ordinary message callback, so it runs with the item's own capability
  // rather than an enclosing purge's ⊤-restriction — and that restriction must come back
  // once it returns, or the remainder of the purge callback could send (§2.4).
  Timestamp saved_time = current_time_;
  bool saved_in = in_callback_;
  bool saved_purge = in_purge_;
  in_purge_ = false;
  RunItem(*item);
  current_time_ = saved_time;
  in_callback_ = saved_in;
  in_purge_ = saved_purge;
  --reentry_depth_;
}

void Worker::AddNotificationRequest(VertexBase* v, const Timestamp& t) {
  pending_.push_back(PendingNotify{t, v, obs_time_ ? obs::MonotonicNs() : 0});
}

void Worker::AddPurgeRequest(VertexBase* v, const Timestamp& t) {
  purges_.push_back(PendingNotify{t, v});
}

bool Worker::TryDeliverPurges(bool force) {
  if (purges_.empty()) {
    return false;
  }
  bool any = false;
  for (size_t i = 0; i < purges_.size();) {
    const Pointstamp p{purges_[i].time, Location::Stage(purges_[i].vertex->address().stage)};
    if (!force && !ctl_->tracker().FrontierPassed(p)) {
      ++i;
      continue;
    }
    PendingNotify n = purges_[i];
    purges_.erase(purges_.begin() + static_cast<ptrdiff_t>(i));
    const uint64_t t0 =
        (metrics_ != nullptr || trace_ != nullptr) ? obs::MonotonicNs() : 0;
    in_callback_ = true;
    in_purge_ = true;  // capability ⊤: the callback may only free state (§2.4)
    current_time_ = n.time;
    n.vertex->OnNotify(n.time);
    in_purge_ = false;
    in_callback_ = false;
    if (metrics_ != nullptr) {
      metrics_->purges_delivered.fetch_add(1, std::memory_order_relaxed);
    }
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceKind::kPurgeDelivered, t0, obs::MonotonicNs() - t0,
                     p.loc.id, n.time.epoch, 0);
    }
    any = true;
  }
  return any;
}

void Worker::FlushProgress() {
  if (progress_.Empty()) {
    return;
  }
  std::vector<ProgressUpdate> updates = progress_.Take();
  if (metrics_ != nullptr) {
    metrics_->progress_flushes.fetch_add(1, std::memory_order_relaxed);
    metrics_->flush_updates.Record(updates.size());
  }
  ctl_->progress_router().BroadcastFromWorker(std::move(updates));
}

void Worker::RunItem(WorkItemBase& item) {
  uint64_t t0 = 0;
  if (metrics_ != nullptr) {
    t0 = obs::MonotonicNs();
    if (item.enqueue_ns() != 0) {
      metrics_->dispatch_latency_ns.Record(t0 - item.enqueue_ns());
    }
  }
  in_callback_ = true;
  current_time_ = item.time();
  item.Run();
  if (item.target() != nullptr) {
    item.target()->FlushOutputs();
  }
  in_callback_ = false;
  if (metrics_ != nullptr) {
    metrics_->items_run.fetch_add(1, std::memory_order_relaxed);
    metrics_->run_time_ns.Record(obs::MonotonicNs() - t0);
  }
  progress_.Add(Pointstamp{item.time(), Location::Connector(item.connector())},
                -item.count());
  FlushProgress();
}

bool Worker::Pass() {
  if (finished_) {
    return false;
  }
  if (ctl_->stopping()) {
    // Shutdown comes only after the computation drained (or was cancelled), so every
    // remaining purge's guarantee time has passed; their capability is ⊤, so they
    // cannot create new events.
    TryDeliverPurges(/*force=*/true);
    FlushProgress();
    finished_ = true;
    ctl_->workers_finished_.fetch_add(1, std::memory_order_acq_rel);
    ctl_->event().NotifyAll();
    return false;
  }
  // A job server's hosts exist before any job does, so the ring is registered on the
  // first pass rather than at thread start.
  if (trace_ == nullptr && ctl_->obs().tracer().enabled()) {
    trace_ = ctl_->obs().tracer().RegisterThread("worker" + std::to_string(global_index_));
  }
  if (parked_) {
    // Stay counted as parked until a message or the Resume arrives. Unparking before the
    // inbox is drained means PauseAndDrain never sees this worker parked while it holds
    // a message.
    if (ctl_->pause_requested() && inbox_.Empty()) {
      return false;
    }
    parked_ = false;
    ctl_->unparks_.fetch_add(1, std::memory_order_acq_rel);
    ctl_->parked_.fetch_sub(1, std::memory_order_acq_rel);
  }
  bool did = false;
  // Messages before notifications (§3.2).
  for (;;) {
    if (local_.empty()) {
      drain_scratch_.clear();
      if (inbox_.DrainInto(drain_scratch_) > 0) {
        for (auto& it : drain_scratch_) {
          local_.push_back(std::move(it));
        }
        drain_scratch_.clear();
        if (metrics_ != nullptr) {
          metrics_->local_queue_depth.Record(local_.size());
        }
      }
    }
    if (local_.empty()) {
      break;
    }
    std::unique_ptr<WorkItemBase> item = std::move(local_.front());
    local_.pop_front();
    RunItem(*item);
    did = true;
  }
  if (ctl_->pause_requested()) {
    // §3.4: a paused worker delivers messages only, and parks once its queues are empty.
    if (!did) {
      FlushProgress();
      parked_ = true;
      ctl_->parked_.fetch_add(1, std::memory_order_acq_rel);
      ctl_->event().NotifyAll();
    }
    return did;
  }
  if (TryDeliverNotifications()) {
    did = true;
  }
  if (TryDeliverPurges(/*force=*/false)) {
    did = true;
  }
  return did;
}

bool Worker::TryDeliverNotifications() {
  if (pending_.empty()) {
    return false;
  }
  FlushProgress();  // our own +1/-1s must be visible before consulting the frontier
  // Deliver the earliest deliverable notification (by the total order, which refines the
  // partial order), then return so queued messages regain priority.
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingNotify& a, const PendingNotify& b) { return a.time < b.time; });
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Pointstamp p{pending_[i].time, Location::Stage(pending_[i].vertex->address().stage)};
    if (!ctl_->tracker().CanDeliver(p)) {
      continue;
    }
    PendingNotify n = pending_[i];
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
    const uint64_t t0 =
        (metrics_ != nullptr || trace_ != nullptr) ? obs::MonotonicNs() : 0;
    in_callback_ = true;
    current_time_ = n.time;
    n.vertex->OnNotify(n.time);
    n.vertex->FlushOutputs();
    in_callback_ = false;
    if (t0 != 0) {
      const uint64_t t1 = obs::MonotonicNs();
      const uint64_t lag = n.requested_ns != 0 ? t0 - n.requested_ns : 0;
      if (metrics_ != nullptr) {
        metrics_->notifications_delivered.fetch_add(1, std::memory_order_relaxed);
        if (n.requested_ns != 0) {
          metrics_->notify_lag_ns.Record(lag);
        }
      }
      if (trace_ != nullptr) {
        // Delivery proves the frontier passed p — record the advance alongside the
        // delivery span.
        trace_->Record(obs::TraceKind::kFrontierAdvance, t0, 0, p.loc.id, n.time.epoch,
                       n.time.coords.empty() ? 0 : n.time.coords[0]);
        trace_->Record(obs::TraceKind::kNotifyDelivered, t0, t1 - t0, p.loc.id,
                       n.time.epoch, lag);
      }
    }
    progress_.Add(p, -1);
    FlushProgress();
    return true;
  }
  return false;
}

void RunWorkerHost(uint32_t worker_index, EventCount& event, const std::atomic<bool>& stop,
                   const ControllerList& list, std::atomic<uint64_t>& missed_wakeups) {
  WakeupAudit audit(event);
  uint64_t idle_fingerprint = kListChanging;
  for (;;) {
    // Read before the pass, which then finishes the worker of every stopping controller.
    const bool stopping = stop.load(std::memory_order_acquire);
    bool ran = false;
    list([&](Controller& ctl) {
      if (ctl.workers_live()) {
        ran = ctl.worker(worker_index).Pass() || ran;
      }
    });
    if (stopping) {
      return;
    }
    if (ran) {
      if (audit.Missed(true)) {
        missed_wakeups.fetch_add(1, std::memory_order_relaxed);
      }
      idle_fingerprint = kListChanging;
      continue;
    }
    // Idle edge, eventcount-style (§3.3): take the ticket, flush, re-check every work
    // source, and only then park. Any controller's progress bumps its tracker version,
    // and any hold a non-worker thread starts bumps its router's held generation; both
    // notify the event, so the fingerprint changing forces another pass.
    const EventCount::Ticket ticket = event.PrepareWait();
    bool emitted = false;
    bool rescan = false;
    uint64_t versions = 0;
    const uint64_t generation = list([&](Controller& ctl) {
      Worker& w = ctl.worker(worker_index);
      if (!ctl.workers_live() || w.finished_) {
        return;
      }
      w.FlushProgress();
      if (!w.parked_) {
        emitted = ctl.progress_router().OnWorkerIdle() || emitted;
      }
      // A stop, pause or resume the last pass has not acted on needs another pass.
      rescan = rescan || !w.inbox_.Empty() || ctl.stopping() ||
               ctl.pause_requested() != w.parked_;
      versions += 1 + ctl.tracker().version() + ctl.progress_router().held_generation();
    });
    if (audit.Missed(emitted)) {
      missed_wakeups.fetch_add(1, std::memory_order_relaxed);
    }
    if (rescan || generation == kListChanging || stop.load(std::memory_order_acquire)) {
      continue;
    }
    const uint64_t fingerprint = generation + versions;
    if (fingerprint != idle_fingerprint) {
      idle_fingerprint = fingerprint;
      continue;
    }
    // The timeout is a liveness backstop; a park it ends that then finds work is counted.
    audit.Park(ticket, kIdleWait);
  }
}

}  // namespace naiad
