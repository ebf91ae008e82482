// Selective rollback recovery (Falkirk Wheel; ROADMAP item 3): the log substrate.
//
// Falkirk Wheel assigns logical times to exchanged events so that when one process dies,
// only ITS lost state is rolled back and replayed — survivors keep theirs. The mechanism
// here: every process durably logs each outbound data frame, per destination, tagged
// with its logical time (epoch timestamp + the frame's position in the log, which by
// construction equals its per-link data sequence number — the "sequence within epoch"
// of the frame). A peer's inbound history since the last checkpoint thus survives at its
// senders: after a failure each survivor re-sends its log tail to the replacement, and
// the replacement's own on-disk outbound logs tell the supervisor nothing needs — its
// regenerated sends are deduplicated at survivors by seeded sequence expectations
// (src/net/transport.h::SeedRecvExpectation).
//
// Low-watermark GC: a committed cluster checkpoint at epoch E proves every frame logged
// so far is reflected in some durable image, so RebaseAll() truncates every log — the
// watermark passes, and record index k in a log thereafter means "the k-th data frame
// sent to that peer since E", which is exactly the post-rebase sequence number the
// receiver's dedup counts. Coordinated restart remains the fallback whenever a log is
// torn past what a replacement needs (ValidateAndLoad fails) or the stall barrier can't
// establish a clean cut.

#ifndef SRC_FT_LOG_RECOVERY_H_
#define SRC_FT_LOG_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/ft/log.h"

namespace naiad {

// One durably-logged outbound data frame, decoded from a log record.
struct OutboundRecord {
  ConnectorId ch = 0;
  Timestamp time;
  int64_t count = 0;            // records in the frame (the +count RouteBundle charged)
  std::vector<uint8_t> frame;   // the exact wire payload RouteBundle produced
};

// Per-destination durable append logs of this process's outbound data frames, plus the
// replay-side loaders. One instance per process per generation, interposed as the job's
// DataTransport (JobStack::InterposeData) in front of the job's own adapter, so that
// {log append, transport enqueue} happen under one lock — log order is then identical to
// the link's sequence numbering, which is what lets a receiver treat "frames received
// since the watermark" as a log prefix.
class OutboundLogSet final : public DataTransport {
 public:
  // Logs live at <dir>/outlog_p<self>_to_<dst>. Opening truncates (a replacement owns
  // its slot's files and starts a fresh post-checkpoint window). Every logged frame is
  // forwarded to `next`, the job's data adapter, which must outlive this set.
  OutboundLogSet(const std::string& dir, uint32_t self, uint32_t nprocs,
                 DataTransport& next);

  static std::string LogPath(const std::string& dir, uint32_t src, uint32_t dst);

  // Encodes [u32 ch][Timestamp][i64 count][u32 len][frame] as one CRC-framed record,
  // appends it durably (Sync), and forwards the frame to `next` — all under the
  // destination's lock. CHECK-fails if the append fails: a frame sent but not durably
  // logged would make a later selective recovery silently lossy.
  void SendBundle(uint32_t dst, ConnectorId ch, const Timestamp& t, int64_t count,
                  std::vector<uint8_t> frame) override;

  // Re-sends a validated log tail after a selective stall: re-encodes and appends every
  // record (the post-stall window must list them again — record k rides link sequence k),
  // then makes the whole batch durable with ONE Sync before any frame reaches `next`.
  // Same guarantee as per-frame SendBundle — no frame can be on the wire without a
  // durable record covering it — amortized over the tail instead of paying one fsync per
  // frame on the recovery critical path.
  void ResendTail(uint32_t dst, std::vector<OutboundRecord>&& tail);

  // Low-watermark GC: truncates every per-destination log (a cluster checkpoint at the
  // current frontier just committed, so everything logged is reflected in durable
  // images). Returns false if any truncation failed.
  bool RebaseAll();

  // Frames recorded toward `dst` since the last rebase.
  uint64_t records(uint32_t dst);

  // Reads back the log toward `dst` into memory, CRC-validating every record. A torn
  // tail fails validation too: the tail frame may have reached the wire (send happens
  // after the append), so a log that cannot prove what was sent cannot support a
  // selective resend — the caller falls back to coordinated restart.
  bool ValidateAndLoad(uint32_t dst, std::vector<OutboundRecord>* out);

  // Replay-side loader for a DEAD peer's on-disk outbound log toward `self` (the file
  // `LogPath(dir, src, self)`): the replacement's own inbound history is not read this
  // way (survivors re-send it), but the supervisor and tests use it to audit what a
  // victim had durably logged. Unlike ValidateAndLoad, a torn tail here is recoverable:
  // the victim died mid-append, the torn record is truncated away, and the clean prefix
  // is returned (kTornTail semantics of LogReader).
  static bool LoadPeerLog(const std::string& dir, uint32_t src, uint32_t self,
                          std::vector<OutboundRecord>* out, bool* was_torn);

  uint64_t bytes_logged() const { return bytes_logged_.load(std::memory_order_relaxed); }
  uint64_t records_logged() const {
    return records_logged_.load(std::memory_order_relaxed);
  }
  uint64_t rebases() const { return rebases_.load(std::memory_order_relaxed); }

 private:
  static bool DecodeRecord(std::span<const uint8_t> body, OutboundRecord* out);

  struct DstLog {
    std::mutex mu;                     // orders {append, enqueue} pairs
    std::unique_ptr<LogWriter> log;
    uint64_t records = 0;              // since last rebase
  };

  // The one record encoder: appends [u32 ch][Timestamp][i64 count][u32 len][frame] to
  // `d`'s log (not yet synced) and counts it. Caller holds d.mu.
  bool AppendLocked(DstLog& d, ConnectorId ch, const Timestamp& t, int64_t count,
                    std::span<const uint8_t> frame);

  const std::string dir_;
  const uint32_t self_;
  DataTransport& next_;
  std::vector<std::unique_ptr<DstLog>> dst_;  // indexed by destination; [self_] unused
  std::atomic<uint64_t> bytes_logged_{0};
  std::atomic<uint64_t> records_logged_{0};
  std::atomic<uint64_t> rebases_{0};
};

}  // namespace naiad

#endif  // SRC_FT_LOG_RECOVERY_H_
