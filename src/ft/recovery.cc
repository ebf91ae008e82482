#include "src/ft/recovery.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/base/rng.h"

namespace naiad {

namespace {

// Retries fsync across EINTR; false on any other failure.
bool FsyncFd(int fd) {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) {
      return false;
    }
  }
  return true;
}

// fsyncs the directory containing `path`. A rename is only durable once the directory
// entry it rewrote is on disk; without this, a power loss after the rename can roll the
// directory back to the old (or no) entry even though the data blocks survived.
bool FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return false;
  }
  const bool ok = FsyncFd(dfd);
  ::close(dfd);
  return ok;
}

// Trailing footer of every published image: CRC-32 of the payload, then a magic word, both
// little-endian u32. The magic distinguishes "pre-footer-era file" (and arbitrary garbage)
// from "footer present but CRC mismatched" — both are kCorrupt, but the check order
// matters: verify the magic first so random tail bytes are never treated as a CRC.
constexpr uint32_t kFooterMagic = 0x4b504843u;  // "CHPK"
constexpr size_t kFooterBytes = 8;

void PutU32(uint8_t* out, uint32_t v) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | static_cast<uint32_t>(in[1]) << 8 |
         static_cast<uint32_t>(in[2]) << 16 | static_cast<uint32_t>(in[3]) << 24;
}

bool WriteAllFd(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool WriteCheckpointFile(const std::string& path, std::span<const uint8_t> image) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  uint8_t footer[kFooterBytes];
  PutU32(footer, Crc32(image.data(), image.size()));
  PutU32(footer + 4, kFooterMagic);
  if (!WriteAllFd(fd, image.data(), image.size()) ||
      !WriteAllFd(fd, footer, sizeof(footer))) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  // The rename is the publication point; fsync first so a kill after the rename cannot
  // leave a name pointing at unwritten data. The fd is closed unconditionally — the old
  // short-circuited `fsync || close || rename` chain leaked it when fsync failed.
  bool flushed = FsyncFd(fd);
  if (::close(fd) != 0) {
    flushed = false;
  }
  if (!flushed || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // The rename alone is atomic but not durable: fsync the parent directory so the
  // published entry survives power loss. If this fails the image is visible but not
  // provably durable, and callers must treat the publish as failed.
  return FsyncParentDir(path);
}

CheckpointReadResult ReadCheckpointFileEx(const std::string& path) {
  CheckpointReadResult res;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    res.status = errno == ENOENT ? CheckpointReadStatus::kAbsent
                                 : CheckpointReadStatus::kIoError;
    return res;
  }
  std::vector<uint8_t> raw;
  uint8_t buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      res.status = CheckpointReadStatus::kIoError;
      return res;
    }
    if (n == 0) {
      break;
    }
    raw.insert(raw.end(), buf, buf + n);
  }
  ::close(fd);
  if (raw.size() < kFooterBytes) {
    res.status = CheckpointReadStatus::kCorrupt;
    return res;
  }
  const uint8_t* footer = raw.data() + raw.size() - kFooterBytes;
  if (GetU32(footer + 4) != kFooterMagic ||
      GetU32(footer) != Crc32(raw.data(), raw.size() - kFooterBytes)) {
    res.status = CheckpointReadStatus::kCorrupt;
    return res;
  }
  raw.resize(raw.size() - kFooterBytes);
  res.status = CheckpointReadStatus::kOk;
  res.image = std::move(raw);
  return res;
}

namespace {

// Pipe records: one tag byte + u64 epoch, written atomically (well under PIPE_BUF).
constexpr uint8_t kTagStarting = 1;
constexpr uint8_t kTagDurable = 2;

void WriteRecord(int fd, uint8_t tag, uint64_t epoch) {
  uint8_t rec[9];
  rec[0] = tag;
  std::memcpy(rec + 1, &epoch, sizeof(epoch));
  size_t off = 0;
  while (off < sizeof(rec)) {
    ssize_t n = ::write(fd, rec + off, sizeof(rec) - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // driver went away; the child just keeps computing
    }
    off += static_cast<size_t>(n);
  }
}

bool ReadRecord(int fd, uint8_t* tag, uint64_t* epoch) {
  uint8_t rec[9];
  size_t off = 0;
  while (off < sizeof(rec)) {
    ssize_t n = ::read(fd, rec + off, sizeof(rec) - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;  // EOF: child exited
    }
    off += static_cast<size_t>(n);
  }
  *tag = rec[0];
  std::memcpy(epoch, rec + 1, sizeof(*epoch));
  return true;
}

}  // namespace

void KillRecoverDriver::Reporter::StartingEpoch(uint64_t epoch) {
  WriteRecord(fd_, kTagStarting, epoch);
}

void KillRecoverDriver::Reporter::CheckpointDurable(uint64_t epoch) {
  WriteRecord(fd_, kTagDurable, epoch);
}

KillRecoverDriver::Outcome KillRecoverDriver::Run(
    uint64_t seed, uint64_t total_epochs, const std::function<void(Reporter&)>& body) {
  NAIAD_CHECK(total_epochs >= 2) << "need at least one epoch before the kill target";
  Outcome out;
  out.kill_epoch = 1 + seed % (total_epochs - 1);
  Rng rng(HashCombine(seed, 0x4b494c4cULL));  // "KILL"
  const uint32_t kill_delay_us = static_cast<uint32_t>(rng.Below(2000));

  int fds[2];
  if (::pipe(fds) != 0) {
    return out;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return out;
  }
  if (pid == 0) {
    // Child: run the computation, reporting over the pipe, then die without running
    // parent-process atexit/static-destructor state.
    ::close(fds[0]);
    Reporter reporter(fds[1]);
    body(reporter);
    ::_exit(0);
  }
  out.forked = true;
  ::close(fds[1]);
  uint8_t tag = 0;
  uint64_t epoch = 0;
  while (ReadRecord(fds[0], &tag, &epoch)) {
    if (tag == kTagDurable) {
      out.any_durable = true;
      out.last_durable_epoch = epoch;
    } else if (tag == kTagStarting && epoch == out.kill_epoch) {
      // Mid-epoch: the victim announced the epoch and is now feeding/processing it.
      std::this_thread::sleep_for(std::chrono::microseconds(kill_delay_us));
      ::kill(pid, SIGKILL);
      out.killed = true;
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!out.killed && WIFSIGNALED(status)) {
    // Child died on its own (e.g. a crash under test); surface that as a kill so callers
    // still attempt recovery rather than mistaking it for a clean finish.
    out.killed = true;
  }
  return out;
}

}  // namespace naiad
