#include "src/net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/base/hash.h"
#include "src/base/logging.h"

namespace naiad {

uint32_t Backoff::DelayUsForAttempt(uint32_t attempt) const {
  if (attempt == 0) {
    return 0;
  }
  // Exponential base, saturating at the cap well before the shift could overflow.
  uint64_t base = policy_.initial_delay_us;
  const uint32_t doublings = attempt - 1;
  if (doublings >= 32 || (base << doublings) >= policy_.max_delay_us) {
    base = policy_.max_delay_us;
  } else {
    base <<= doublings;
  }
  if (base <= 1) {
    return static_cast<uint32_t>(base);
  }
  // Equal jitter: [base/2, base]. The draw is a pure function of (seed, attempt).
  const uint64_t half = base / 2;
  const uint64_t draw = HashCombine(seed_, attempt) % (half + 1);
  return static_cast<uint32_t>(half + draw);
}

bool Backoff::Next() {
  if (attempts_ >= policy_.max_attempts) {
    return false;
  }
  const uint32_t delay_us = DelayUsForAttempt(attempts_);
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  ++attempts_;
  return true;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    write_faults_ = other.write_faults_;
    read_faults_ = other.read_faults_;
    other.fd_ = -1;
    other.write_faults_ = nullptr;
    other.read_faults_ = nullptr;
  }
  return *this;
}

bool Socket::WriteAll(std::span<const uint8_t> data) {
  size_t off = 0;
  while (off < data.size()) {
    size_t want = data.size() - off;
    if (write_faults_ != nullptr) {
      WriteStep step = write_faults_->Next(want);
      for (uint32_t z = 0; z < step.zero_writes; ++z) {
        // A zero-byte send() is a real syscall that transfers nothing — the shape of an
        // interrupted write — and re-enters this retry loop with `off` unchanged.
        ssize_t n = ::send(fd_, data.data() + off, 0, MSG_NOSIGNAL);
        if (n < 0 && errno != EINTR) {
          return false;
        }
      }
      if (step.delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(step.delay_us));
      }
      want = std::min(want, std::max<size_t>(1, step.max_len));
    }
    ssize_t n = ::send(fd_, data.data() + off, want, MSG_NOSIGNAL);
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

bool Socket::WritevAll(std::span<const iovec> iov) {
  // Working copy advanced in place as bytes drain; `idx` is the first unfinished entry.
  std::vector<iovec> rest(iov.begin(), iov.end());
  size_t idx = 0;
  size_t remaining = 0;
  for (const iovec& v : iov) {
    remaining += v.iov_len;
  }
  while (remaining > 0) {
    while (idx < rest.size() && rest[idx].iov_len == 0) {
      ++idx;
    }
    size_t want = remaining;
    if (write_faults_ != nullptr) {
      WriteStep step = write_faults_->Next(remaining);
      for (uint32_t z = 0; z < step.zero_writes; ++z) {
        ssize_t n = ::send(fd_, rest[idx].iov_base, 0, MSG_NOSIGNAL);
        if (n < 0 && errno != EINTR) {
          return false;
        }
      }
      if (step.delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(step.delay_us));
      }
      want = std::min(want, std::max<size_t>(1, step.max_len));
    }
    // Gather up to `want` bytes starting at `idx`, trimming the final entry — an injected
    // partial write may stop inside any frame of the batch.
    iovec chunk[64];
    size_t cnt = 0;
    size_t left = want;
    for (size_t i = idx; i < rest.size() && cnt < 64 && left > 0; ++i) {
      chunk[cnt] = rest[i];
      if (chunk[cnt].iov_len > left) {
        chunk[cnt].iov_len = left;
      }
      left -= chunk[cnt].iov_len;
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = chunk;
    msg.msg_iovlen = cnt;
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    remaining -= static_cast<size_t>(n);
    size_t adv = static_cast<size_t>(n);
    while (adv > 0) {
      if (rest[idx].iov_len <= adv) {
        adv -= rest[idx].iov_len;
        rest[idx].iov_len = 0;
        ++idx;
      } else {
        rest[idx].iov_base = static_cast<uint8_t*>(rest[idx].iov_base) + adv;
        rest[idx].iov_len -= adv;
        adv = 0;
      }
    }
  }
  return true;
}

ReadResult Socket::ReadExact(std::span<uint8_t> data) {
  ReadResult res;
  size_t off = 0;
  while (off < data.size()) {
    size_t want = data.size() - off;
    if (read_faults_ != nullptr) {
      ReadStep step = read_faults_->Next(want);
      for (uint32_t i = 0; i < step.eintr_spins; ++i) {
        // Modeled interrupted recv(): yield and re-enter the retry loop with `off`
        // unchanged. No syscall — recv(fd, buf, 0) may return 0, which is ambiguous
        // with EOF, so the read side models the interruption in-process.
        std::this_thread::yield();
      }
      if (step.delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(step.delay_us));
      }
      want = std::min(want, std::max<size_t>(1, step.max_len));
    }
    ssize_t n = ::recv(fd_, data.data() + off, want, 0);
    if (n == 0) {
      // Peer closed. Only a close before the first byte of this span is a clean
      // boundary; a close after partial progress is a torn read.
      res.status = off == 0 ? ReadResult::Status::kEof : ReadResult::Status::kError;
      res.bytes_read = off;
      return res;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      res.status = ReadResult::Status::kError;
      res.bytes_read = off;
      res.err = errno;
      return res;
    }
    off += static_cast<size_t>(n);
  }
  res.bytes_read = off;
  return res;
}

void Socket::SetNoDelay() {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::ConnectLocal(uint16_t port) {
  return ConnectLocal(port, BackoffPolicy{}, HashCombine(HashString("DIAL"), port));
}

Socket Socket::ConnectLocal(uint16_t port, const BackoffPolicy& policy, uint64_t seed,
                            uint32_t* attempts_out) {
  Backoff backoff(policy, seed);
  while (backoff.Next()) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    NAIAD_CHECK(fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      if (attempts_out != nullptr) {
        *attempts_out = backoff.attempts();
      }
      Socket s(fd);
      s.SetNoDelay();
      return s;
    }
    ::close(fd);
  }
  if (attempts_out != nullptr) {
    *attempts_out = backoff.attempts();
  }
  return Socket();
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), wake_fd_(std::exchange(other.wake_fd_, -1)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    wake_fd_ = std::exchange(other.wake_fd_, -1);
  }
  return *this;
}

uint16_t Listener::Open(uint16_t port) {
  // Non-blocking so Accept() never blocks after poll() reported a connection that was
  // reset before it could be taken; accepted sockets do not inherit the flag.
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  NAIAD_CHECK(fd_ >= 0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  NAIAD_CHECK(wake_fd_ >= 0);
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);  // 0 = ephemeral
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 64) != 0) {
    Close();
    return 0;
  }
  socklen_t len = sizeof(addr);
  NAIAD_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  return ntohs(addr.sin_port);
}

Socket Listener::Accept() {
  pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
  while (::poll(fds, 2, -1) >= 0 || errno == EINTR) {
    if (fds[1].revents != 0) {
      break;  // shut down
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      Socket s(fd);
      s.SetNoDelay();
      return s;
    }
    if (errno != EAGAIN && errno != EINTR && errno != ECONNABORTED) {
      break;
    }
  }
  return Socket();
}

void Listener::Shutdown() {
  if (wake_fd_ >= 0) {
    NAIAD_CHECK(::eventfd_write(wake_fd_, 1) == 0);
  }
}

void Listener::Rearm() {
  eventfd_t n;
  ::eventfd_read(wake_fd_, &n);  // resets the count; EAGAIN when already clear
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

}  // namespace naiad
