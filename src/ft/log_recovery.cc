#include "src/ft/log_recovery.h"

#include "src/ser/bytes.h"

namespace naiad {

OutboundLogSet::OutboundLogSet(const std::string& dir, uint32_t self, uint32_t nprocs,
                               DataTransport& next)
    : dir_(dir), self_(self), next_(next) {
  dst_.resize(nprocs);
  for (uint32_t d = 0; d < nprocs; ++d) {
    if (d == self) {
      continue;
    }
    dst_[d] = std::make_unique<DstLog>();
    dst_[d]->log = std::make_unique<LogWriter>(LogPath(dir, self, d));
  }
}

std::string OutboundLogSet::LogPath(const std::string& dir, uint32_t src, uint32_t dst) {
  return dir + "/outlog_p" + std::to_string(src) + "_to_" + std::to_string(dst);
}

bool OutboundLogSet::AppendLocked(DstLog& d, ConnectorId ch, const Timestamp& t,
                                  int64_t count, std::span<const uint8_t> frame) {
  ByteWriter w;
  w.WriteU32(ch);
  t.Encode(w);
  w.WriteI64(count);
  w.WriteU32(static_cast<uint32_t>(frame.size()));
  w.WriteBytes(frame.data(), frame.size());
  if (!d.log->AppendRecord(w.buffer())) {
    return false;
  }
  ++d.records;
  records_logged_.fetch_add(1, std::memory_order_relaxed);
  bytes_logged_.fetch_add(w.size(), std::memory_order_relaxed);
  return true;
}

void OutboundLogSet::SendBundle(uint32_t dst, ConnectorId ch, const Timestamp& t,
                                int64_t count, std::vector<uint8_t> frame) {
  DstLog& d = *dst_[dst];
  std::lock_guard<std::mutex> lock(d.mu);
  // Durable-before-send, under the same lock the transport enqueue happens under: the
  // log must (a) cover every frame that could have reached the wire and (b) list frames
  // in exactly the order the sender numbers them. A failed append here would leave a
  // future selective recovery silently lossy, so it is fatal.
  NAIAD_CHECK(AppendLocked(d, ch, t, count, frame) && d.log->Sync())
      << "outbound log append failed toward process " << dst << " at "
      << d.log->path();
  next_.SendBundle(dst, ch, t, count, std::move(frame));
}

void OutboundLogSet::ResendTail(uint32_t dst, std::vector<OutboundRecord>&& tail) {
  DstLog& d = *dst_[dst];
  std::lock_guard<std::mutex> lock(d.mu);
  for (const OutboundRecord& rec : tail) {
    NAIAD_CHECK(AppendLocked(d, rec.ch, rec.time, rec.count, rec.frame))
        << "resend re-log failed toward process " << dst << " at " << d.log->path();
  }
  NAIAD_CHECK(d.log->Sync()) << "resend re-log sync failed at " << d.log->path();
  for (OutboundRecord& rec : tail) {
    next_.SendBundle(dst, rec.ch, rec.time, rec.count, std::move(rec.frame));
  }
}

bool OutboundLogSet::RebaseAll() {
  bool ok = true;
  for (auto& d : dst_) {
    if (d == nullptr) {
      continue;
    }
    std::lock_guard<std::mutex> lock(d->mu);
    ok = d->log->Truncate() && ok;
    d->records = 0;
  }
  rebases_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

uint64_t OutboundLogSet::records(uint32_t dst) {
  DstLog& d = *dst_[dst];
  std::lock_guard<std::mutex> lock(d.mu);
  return d.records;
}

bool OutboundLogSet::DecodeRecord(std::span<const uint8_t> body, OutboundRecord* out) {
  ByteReader r(body);
  out->ch = r.ReadU32();
  if (!out->time.Decode(r)) {
    return false;
  }
  out->count = r.ReadI64();
  const uint32_t len = r.ReadU32();
  if (!r.ok() || r.remaining() != len) {
    return false;
  }
  out->frame.resize(len);
  return r.ReadBytes(out->frame.data(), len);
}

bool OutboundLogSet::ValidateAndLoad(uint32_t dst, std::vector<OutboundRecord>* out) {
  DstLog& d = *dst_[dst];
  std::lock_guard<std::mutex> lock(d.mu);
  if (!d.log->ok() || !d.log->Flush()) {
    return false;
  }
  std::vector<std::vector<uint8_t>> raw;
  if (LogReader::ReadAll(d.log->path(), &raw) != LogReader::Status::kOk) {
    // A live writer's log must read clean end to end; a torn tail means the final frame
    // may have reached the wire without a provable record of it — no selective resend.
    return false;
  }
  if (raw.size() != d.records) {
    return false;
  }
  out->clear();
  out->reserve(raw.size());
  for (const auto& body : raw) {
    OutboundRecord rec;
    if (!DecodeRecord(body, &rec)) {
      return false;
    }
    out->push_back(std::move(rec));
  }
  return true;
}

bool OutboundLogSet::LoadPeerLog(const std::string& dir, uint32_t src, uint32_t self,
                                 std::vector<OutboundRecord>* out, bool* was_torn) {
  std::vector<std::vector<uint8_t>> raw;
  uint64_t clean_prefix = 0;
  const LogReader::Status st = LogReader::ReadAll(LogPath(dir, src, self), &raw,
                                                  &clean_prefix);
  if (was_torn != nullptr) {
    *was_torn = st == LogReader::Status::kTornTail;
  }
  if (st == LogReader::Status::kTornTail) {
    // The victim died mid-append; the torn record was never fully durable. Truncate so
    // later readers see a clean log, and return the provable prefix.
    LogReader::TruncateTo(LogPath(dir, src, self), clean_prefix);
  } else if (st != LogReader::Status::kOk) {
    return false;
  }
  out->clear();
  out->reserve(raw.size());
  for (const auto& body : raw) {
    OutboundRecord rec;
    if (!DecodeRecord(body, &rec)) {
      return false;
    }
    out->push_back(std::move(rec));
  }
  return true;
}

}  // namespace naiad
