#include "src/net/progress_router.h"

#include <optional>
#include <utility>

#include "src/ser/codec.h"

namespace naiad {

std::vector<uint8_t> DistributedProgressRouter::EncodeUpdates(
    const std::vector<ProgressUpdate>& ups) {
  ByteWriter w;
  Codec<std::vector<ProgressUpdate>>::Encode(w, ups);
  return std::move(w.buffer());
}

std::vector<ProgressUpdate> DistributedProgressRouter::DecodeUpdates(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  std::vector<ProgressUpdate> ups;
  NAIAD_CHECK(Codec<std::vector<ProgressUpdate>>::Decode(r, ups));
  return ups;
}

void DistributedProgressRouter::Broadcast(std::vector<ProgressUpdate> updates) {
  Accumulate(std::move(updates), /*from_worker=*/false);
}

void DistributedProgressRouter::BroadcastFromWorker(std::vector<ProgressUpdate> updates) {
  Accumulate(std::move(updates), /*from_worker=*/true);
}

void DistributedProgressRouter::Accumulate(std::vector<ProgressUpdate> updates,
                                           bool from_worker) {
  if (updates.empty()) {
    return;
  }
  switch (strategy_) {
    case ProgressStrategy::kDirect:
    case ProgressStrategy::kGlobalAcc:
      Emit(std::move(updates));
      return;
    case ProgressStrategy::kLocalAcc:
    case ProgressStrategy::kLocalGlobalAcc: {
      // A worker flushes its own holds at its idle edge; any other thread's hold may owe
      // the parked workers a notify, so it is published as such.
      std::optional<EventCount::Publication> pub;
      if (!from_worker) {
        pub.emplace(ctl_->event());
      }
      bool flush;
      bool announce = false;
      {
        std::lock_guard<std::mutex> lock(local_mu_);
        AddToBuffer(local_buf_, updates);
        flush = !SafeToHold(local_buf_);
        if (!from_worker && !flush) {
          announce = MarkForeign(local_buf_, local_foreign_);
        }
      }
      // An early flush is always safe (holding is the optimization); injecting one
      // exercises schedules where the accumulator releases mid-burst.
      if (!flush && faults_ != nullptr && faults_->ForceEarlyFlush()) {
        flush = true;
      }
      if (flush) {
        FlushLocal();
      }
      if (pub) {
        Announce(*pub, announce && !flush);
      }
      return;
    }
  }
}

bool DistributedProgressRouter::MarkForeign(const std::map<Pointstamp, int64_t>& buf,
                                            bool& foreign) {
  if (buf.empty() || foreign) {
    return false;
  }
  foreign = true;
  return true;
}

void DistributedProgressRouter::Announce(EventCount::Publication& pub, bool announce) {
  if (announce) {
    ++held_generation_;
  }
  pub.set_notify(announce);
}

void DistributedProgressRouter::Emit(std::vector<ProgressUpdate> updates) {
  if (updates.empty()) {
    return;
  }
  if (faults_ != nullptr) {
    faults_->PerturbFlushBatch(updates);
  }
  if (obs::ProcessMetrics* m = ctl_->obs().metrics().process()) {
    m->progress_emit_updates.Record(updates.size());
  }
  std::vector<uint8_t> payload = EncodeUpdates(updates);
  const bool to_central = strategy_ == ProgressStrategy::kGlobalAcc ||
                          strategy_ == ProgressStrategy::kLocalGlobalAcc;
  if (to_central) {
    transport_->Send(0, FrameType::kProgressAcc, std::move(payload), job_, acct_);
  } else {
    transport_->BroadcastFrame(FrameType::kProgress, payload, /*include_self=*/true, job_,
                               acct_);
  }
}

void DistributedProgressRouter::EmitFromCentral(std::vector<ProgressUpdate> updates) {
  if (updates.empty()) {
    return;
  }
  if (faults_ != nullptr) {
    faults_->PerturbFlushBatch(updates);
  }
  if (obs::ProcessMetrics* m = ctl_->obs().metrics().process()) {
    m->progress_emit_updates.Record(updates.size());
  }
  std::vector<uint8_t> payload = EncodeUpdates(updates);
  transport_->BroadcastFrame(FrameType::kProgress, payload, /*include_self=*/true, job_,
                             acct_);
}

void DistributedProgressRouter::OnProgressFrame(uint32_t /*src*/,
                                                std::span<const uint8_t> payload) {
  ctl_->tracker().Apply(DecodeUpdates(payload));
}

void DistributedProgressRouter::OnAccumulatorFrame(uint32_t /*src*/,
                                                   std::span<const uint8_t> payload) {
  NAIAD_CHECK(IsCentral());
  std::vector<ProgressUpdate> ups = DecodeUpdates(payload);
  // This runs on a transport receiver thread (or inline under a self-send), which will
  // never reach an idle edge for this job: every central hold is the parked hosts' to
  // flush, so the first one since the last flush notifies them.
  EventCount::Publication pub(ctl_->event());
  bool flush;
  bool announce;
  {
    std::lock_guard<std::mutex> lock(central_mu_);
    const bool was_empty = central_buf_.empty();
    AddToBuffer(central_buf_, ups);
    flush = !SafeToHold(central_buf_);
    announce = !flush && MarkForeign(central_buf_, central_foreign_);
    if (was_empty && !central_buf_.empty() && ctl_->obs().metrics().process() != nullptr) {
      central_hold_start_ns_ = obs::MonotonicNs();
    }
  }
  if (!flush && faults_ != nullptr && faults_->ForceEarlyFlush()) {
    flush = true;
  }
  if (flush) {
    FlushCentral();
  }
  Announce(pub, announce && !flush);
}

bool DistributedProgressRouter::OnWorkerIdle() {
  // Idle flushes may be deferred (boundedly) by the fault hook: idle workers re-poll on
  // the eventcount timeout, so a deferred flush is retried until the hook lets it pass.
  // Under a fault plan that retry is a timed-out park followed by a flush, so fault-plan
  // runs count missed wakeups by design.
  if (faults_ != nullptr && !faults_->BeforeIdleFlush()) {
    return false;
  }
  // Only holds other threads made count as released: the local flush below can send to
  // this process's own central accumulator inline, which holds it as a foreign hold.
  bool central_foreign = false;
  if (IsCentral()) {
    std::lock_guard<std::mutex> lock(central_mu_);
    central_foreign = central_foreign_;
  }
  const bool local_foreign = FlushLocal();
  if (IsCentral()) {
    FlushCentral();
  }
  return local_foreign || central_foreign;
}

bool DistributedProgressRouter::FlushAll() {
  bool emitted = FlushLocal();
  if (IsCentral()) {
    emitted = FlushCentral() || emitted;
  }
  return emitted;
}

bool DistributedProgressRouter::Empty() const {
  {
    std::lock_guard<std::mutex> lock(local_mu_);
    if (!local_buf_.empty()) {
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(central_mu_);
  return central_buf_.empty();
}

void DistributedProgressRouter::AddToBuffer(std::map<Pointstamp, int64_t>& buf,
                                            std::span<const ProgressUpdate> ups) {
  for (const ProgressUpdate& u : ups) {
    int64_t& d = buf[u.point];
    d += u.delta;
    if (d == 0) {
      buf.erase(u.point);
    }
  }
}

bool DistributedProgressRouter::SafeToHold(const std::map<Pointstamp, int64_t>& buf) const {
  if (buf.size() > hold_limit_) {
    return false;
  }
  const ProgressTracker& tracker = ctl_->tracker();
  for (const auto& [p, delta] : buf) {
    if (delta <= 0) {
      continue;  // delaying retirements only makes other frontiers conservative
    }
    // A new event at p may be hidden only while p is already known active, or while some
    // other active pointstamp could-result-in p (§3.3's two conditions).
    if (tracker.Count(p) > 0) {
      continue;
    }
    if (!tracker.CanDeliver(p)) {
      continue;  // an active dominator exists
    }
    return false;
  }
  return true;
}

std::vector<ProgressUpdate> DistributedProgressRouter::TakeBuffer(
    std::map<Pointstamp, int64_t>& buf) {
  std::vector<ProgressUpdate> out;
  out.reserve(buf.size());
  for (const auto& [p, d] : buf) {
    if (d > 0) {
      out.push_back({p, d});
    }
  }
  for (const auto& [p, d] : buf) {
    if (d < 0) {
      out.push_back({p, d});
    }
  }
  buf.clear();
  return out;
}

bool DistributedProgressRouter::FlushLocal() {
  std::vector<ProgressUpdate> ups;
  bool foreign;
  {
    std::lock_guard<std::mutex> lock(local_mu_);
    foreign = std::exchange(local_foreign_, false);
    if (local_buf_.empty()) {
      return false;
    }
    ups = TakeBuffer(local_buf_);
  }
  Emit(std::move(ups));
  return foreign;
}

bool DistributedProgressRouter::FlushCentral() {
  std::vector<ProgressUpdate> ups;
  {
    std::lock_guard<std::mutex> lock(central_mu_);
    central_foreign_ = false;
    if (central_buf_.empty()) {
      return false;
    }
    ups = TakeBuffer(central_buf_);
    if (central_hold_start_ns_ != 0) {
      if (obs::ProcessMetrics* m = ctl_->obs().metrics().process()) {
        m->progress_central_hold_ns.Record(obs::MonotonicNs() - central_hold_start_ns_);
      }
      central_hold_start_ns_ = 0;
    }
  }
  EmitFromCentral(std::move(ups));
  return true;
}

}  // namespace naiad
