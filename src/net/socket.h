// RAII POSIX TCP sockets (§3.5 "Networking").
//
// Naiad's remote channels are long-lived TCP connections with Nagle's algorithm disabled —
// the paper found the default Nagle/delayed-ACK interaction added 200 ms stalls to small
// tail messages. We set TCP_NODELAY on every connection for the same reason. Loopback is
// the wire in this reproduction, but the code path (connect/accept, framing, full
// reads/writes, EOF handling) is exactly what a physical cluster would run.

#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace naiad {

// Fault injection (src/testing/fault.h): constraints applied to one send() attempt.
// `max_len` caps how many bytes this step may write (forcing partial writes),
// `delay_us` stalls the sender first, and `zero_writes` issues that many zero-byte
// send() calls before the real one — the syscall-level shape of an EINTR/EAGAIN storm,
// re-entering WriteAll's retry loop without changing what ultimately reaches the wire.
struct WriteStep {
  uint32_t delay_us = 0;
  size_t max_len = std::numeric_limits<size_t>::max();
  uint32_t zero_writes = 0;
};

// Consulted by Socket::WriteAll before every send() attempt when installed. All faults are
// FIFO- and content-preserving: the receiver observes identical bytes in identical order,
// only the syscall schedule changes.
class WriteFaultHook {
 public:
  virtual ~WriteFaultHook() = default;
  virtual WriteStep Next(size_t remaining) = 0;
};

// Fault injection: constraints applied to one recv() attempt. `max_len` caps how many
// bytes this step may read (torn reads that split a frame into seeded chunks),
// `delay_us` stalls the receiver first, and `eintr_spins` re-enters ReadExact's retry
// loop that many times with a sched yield but no syscall — the in-process model of an
// EINTR storm. (The write side models EINTR with real zero-byte send()s; recv(fd, buf, 0)
// may legally return 0, which is indistinguishable from EOF, so the read side models the
// interruption without the syscall.) None of this changes which bytes arrive or in what
// order.
struct ReadStep {
  uint32_t delay_us = 0;
  size_t max_len = std::numeric_limits<size_t>::max();
  uint32_t eintr_spins = 0;
};

// Consulted by Socket::ReadExact before every recv() attempt when installed.
class ReadFaultHook {
 public:
  virtual ~ReadFaultHook() = default;
  virtual ReadStep Next(size_t remaining) = 0;
};

// Outcome of Socket::ReadExact. The distinction that matters to framed protocols: a peer
// close before the *first* byte of the span is a clean boundary (kEof); any EOF or errno
// failure after partial progress is a torn read and must never be surfaced as a short
// success. `err` carries the errno of a failed syscall (0 for EOF outcomes), so callers
// can tell a connection reset landing on a frame boundary (bytes_read == 0,
// err == ECONNRESET) from a torn frame.
struct ReadResult {
  enum class Status : uint8_t { kOk, kEof, kError };
  Status status = Status::kOk;
  size_t bytes_read = 0;
  int err = 0;
  bool ok() const { return status == Status::kOk; }
};

// Shared retry schedule for connect/re-dial/bind loops: exponential growth from
// `initial_delay_us` to the `max_delay_us` cap, with per-attempt jitter drawn
// deterministically from a seed so two processes hammering the same lost listener
// desynchronize instead of thundering in lockstep — and so a test can replay the exact
// schedule. `max_attempts` bounds the loop; callers observe exhaustion, they are never
// spun forever.
struct BackoffPolicy {
  uint32_t initial_delay_us = 200;
  uint32_t max_delay_us = 50000;
  uint32_t max_attempts = 64;
};

class Backoff {
 public:
  Backoff(const BackoffPolicy& policy, uint64_t seed) : policy_(policy), seed_(seed) {}

  // Grants one attempt: sleeps the jittered delay for it (attempt 0 is immediate) and
  // returns true, or returns false without sleeping once max_attempts are spent.
  bool Next();
  uint32_t attempts() const { return attempts_; }

  // The delay Next() sleeps before 0-based attempt `attempt` — a pure function of
  // (policy, seed, attempt), exposed so tests can pin the schedule without sleeping.
  uint32_t DelayUsForAttempt(uint32_t attempt) const;

 private:
  BackoffPolicy policy_;
  uint64_t seed_;
  uint32_t attempts_ = 0;
};

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept
      : fd_(other.fd_),
        write_faults_(other.write_faults_),
        read_faults_(other.read_faults_) {
    other.fd_ = -1;
    other.write_faults_ = nullptr;
    other.read_faults_ = nullptr;
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes the whole buffer; returns false on error/peer close.
  bool WriteAll(std::span<const uint8_t> data);
  // Gathered write: transmits every iovec in order with as few syscalls as the kernel
  // allows; returns false on error/peer close. Write faults apply exactly as in WriteAll
  // (each attempt is capped by the step's max_len, so injected partial writes can tear
  // across iovec boundaries).
  bool WritevAll(std::span<const iovec> iov);
  // Reads exactly data.size() bytes; returns false on EOF/error.
  bool ReadAll(std::span<uint8_t> data) { return ReadExact(data).ok(); }
  // Reads exactly data.size() bytes, classifying the failure modes (see ReadResult):
  // clean EOF strictly means zero bytes of this span arrived before the orderly close.
  ReadResult ReadExact(std::span<uint8_t> data);

  void SetNoDelay();
  // Unblocks any reader/writer, then closes.
  void ShutdownBoth();
  void Close();

  // Installs (or clears, with nullptr) a fault hook consulted on every WriteAll step.
  // Non-owning; the hook must outlive the socket's use. Only the writing thread may call
  // WriteAll while a hook is installed.
  void SetWriteFaults(WriteFaultHook* hook) { write_faults_ = hook; }
  // Same contract for the read side: consulted on every ReadExact step; only the reading
  // thread may call ReadExact while a hook is installed.
  void SetReadFaults(ReadFaultHook* hook) { read_faults_ = hook; }

  // Connects to 127.0.0.1:port, retrying on the default jittered-backoff schedule while
  // the listener comes up (seeded from the port, so repeated dials of the same port
  // replay the same bounded schedule).
  static Socket ConnectLocal(uint16_t port);
  // Same, with an explicit schedule. `attempts_out`, when non-null, receives the number
  // of connect() attempts made (tests assert the count stays bounded).
  static Socket ConnectLocal(uint16_t port, const BackoffPolicy& policy, uint64_t seed,
                             uint32_t* attempts_out = nullptr);

 private:
  int fd_ = -1;
  WriteFaultHook* write_faults_ = nullptr;
  ReadFaultHook* read_faults_ = nullptr;
};

class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(Listener&&) noexcept;
  Listener& operator=(Listener&&) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds 127.0.0.1 on an ephemeral port; returns the chosen port (0 on failure).
  uint16_t Open() { return Open(0); }
  // Binds 127.0.0.1 on `port` (0 = ephemeral); returns the bound port (0 on failure).
  // SO_REUSEADDR lets a recovering process rebind its published port while the previous
  // generation's connections linger in TIME_WAIT.
  uint16_t Open(uint16_t port);
  // Waits for the next connection; returns an invalid Socket once Shutdown() was called.
  Socket Accept();
  // Unblocks a concurrent Accept(), and fails every later one, without closing the
  // socket: the port stays bound and dials keep queueing. Rearm() undoes it, so an owner
  // that stopped accepting can hand the listener on to the next one.
  void Shutdown();
  void Rearm();
  void Close();
  bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  int wake_fd_ = -1;  // eventfd, readable while shut down
};

}  // namespace naiad

#endif  // SRC_NET_SOCKET_H_
