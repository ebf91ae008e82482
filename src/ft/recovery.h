// Kill-and-recover driver (§3.4): real process death for the checkpoint/restore path.
//
// The checkpoint tests in ft_test simulate failure by abandoning a controller; this driver
// makes the failure real. It forks a child process that runs the computation, checkpointing
// to a file at epoch boundaries (atomically — write-temp-then-rename — so SIGKILL can never
// expose a torn image), and SIGKILLs the child mid-epoch at a seed-chosen point. Recovery
// then restores a fresh controller from whatever image survived on disk and replays the
// remaining epochs; results must be byte-identical to a clean run for every seed.
//
// Determinism contract: the kill epoch and the in-epoch kill delay are pure functions of
// the seed, so `seed` alone reproduces the failure schedule (up to OS scheduling of the
// victim, which recovery correctness must not depend on — that is the property under test).

#ifndef SRC_FT_RECOVERY_H_
#define SRC_FT_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace naiad {

// Atomically publishes `image` at `path` (temp file + fsync + rename + parent-directory
// fsync, so the publication survives power loss, not just process death), appending an
// 8-byte footer [u32 CRC-32 of image][u32 footer magic] so readers can reject torn or
// bit-rotted images by content. Returns false on I/O error — including when the image was
// renamed into place but its durability could not be established.
bool WriteCheckpointFile(const std::string& path, std::span<const uint8_t> image);

// Why the read outcomes are split: the cluster recovery protocol reacts differently to
// each. "No checkpoint yet" (kAbsent) means restart from scratch; a damaged image
// (kCorrupt) under a manifest that names it means the manifest commit rule was violated
// and must fail loudly; a transient I/O error (kIoError) is retryable.
enum class CheckpointReadStatus : uint8_t {
  kOk = 0,       // image read and CRC-verified; footer stripped
  kAbsent = 1,   // no file at `path`
  kIoError = 2,  // open/read failed for a reason other than absence
  kCorrupt = 3,  // short read (shorter than the footer), bad footer magic, or CRC mismatch
};

struct CheckpointReadResult {
  CheckpointReadStatus status = CheckpointReadStatus::kAbsent;
  std::vector<uint8_t> image;  // footer stripped; empty unless status == kOk
  bool ok() const { return status == CheckpointReadStatus::kOk; }
};

// Reads and verifies a previously published image (see CheckpointReadStatus).
CheckpointReadResult ReadCheckpointFileEx(const std::string& path);

class KillRecoverDriver {
 public:
  // The child's reporting channel back to the driver (a pipe). The child announces when it
  // begins feeding an epoch and when that epoch's checkpoint is durable on disk.
  class Reporter {
   public:
    explicit Reporter(int fd) : fd_(fd) {}
    void StartingEpoch(uint64_t epoch);
    void CheckpointDurable(uint64_t epoch);

   private:
    int fd_;
  };

  struct Outcome {
    bool forked = false;             // driver ran (fork succeeded)
    bool killed = false;             // child was SIGKILLed (vs finishing early)
    uint64_t kill_epoch = 0;         // epoch the kill targeted
    uint64_t last_durable_epoch = 0; // highest CheckpointDurable seen before the kill
    bool any_durable = false;
  };

  // Forks a child running `body(reporter)`; the child must _exit when done. The parent
  // SIGKILLs it a seed-derived delay after it announces StartingEpoch(kill_epoch), where
  // kill_epoch = 1 + seed % (total_epochs - 1) — always mid-run, never before the first
  // checkpoint can exist nor after the run's useful life.
  static Outcome Run(uint64_t seed, uint64_t total_epochs,
                     const std::function<void(Reporter&)>& body);
};

}  // namespace naiad

#endif  // SRC_FT_RECOVERY_H_
