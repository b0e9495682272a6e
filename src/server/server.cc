#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "server/dispatch.h"
#include "util/logging.h"
#include "util/syscall_shim.h"

namespace sccf::server {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// How long the listen fd stays off epoll after EMFILE/ENFILE before a
/// re-arm attempt. Long enough that an fd-exhausted process is not
/// woken thousands of times a second by the level-triggered backlog,
/// short enough that recovery (something closed an fd) is near-instant
/// on a human timescale.
constexpr int64_t kAcceptRearmDelayNs = 100'000'000;  // 100ms
// Pending reply bytes at which a pipeline's replies are written out
// before its next command runs. Without it a burst of pipelined HISTORY
// requests built all its replies in one buffer (about 2 MB for 2000
// users of 150 items) before the first write, and that peak grew with
// every ingested event.
constexpr size_t kFlushBytes = 64u << 10;

}  // namespace

Server::Server(online::Engine& engine, ServerOptions options)
    : engine_(&engine), options_(std::move(options)) {}

Server::~Server() {
  Shutdown();
  Wait();
}

Status Server::Start() {
  if (started_) {
    return Status::FailedPrecondition("Start may be called once");
  }
  if (options_.max_connections < 1) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  if (options_.read_buffer_limit == 0) {
    return Status::InvalidArgument("read_buffer_limit must be positive");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind_address " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Errno("bind " + options_.bind_address + ":" +
                            std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 511) != 0) {
    const Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    const Status st = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wakeup_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  bgsave_done_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wakeup_fd_ < 0 || bgsave_done_fd_ < 0) {
    const Status st = Errno("epoll_create1/eventfd");
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
    if (bgsave_done_fd_ >= 0) ::close(bgsave_done_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = wakeup_fd_ = bgsave_done_fd_ = -1;
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  SCCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.fd = wakeup_fd_;
  SCCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) == 0);
  ev.data.fd = bgsave_done_fd_;
  SCCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, bgsave_done_fd_, &ev) ==
             0);

  started_ = true;
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Server::Shutdown() {
  if (wakeup_fd_ < 0) return;
  const uint64_t one = 1;
  // Async-signal-safe by design: a single write(2); EAGAIN (counter
  // saturated by an earlier Shutdown) is as good as success. Stays a
  // raw syscall on purpose — an injected write fault must never be
  // able to sever the shutdown channel.
  [[maybe_unused]] const ssize_t n =
      ::write(wakeup_fd_, &one, sizeof(one));
}

void Server::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_refused = refused_.load(std::memory_order_relaxed);
  s.commands_executed = commands_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.connections_timed_out = timed_out_.load(std::memory_order_relaxed);
  s.commands_shed = shed_.load(std::memory_order_relaxed);
  s.loop_wakeups = wakeups_.load(std::memory_order_relaxed);
  s.inflight_bytes = inflight_bytes_.load(std::memory_order_relaxed);
  return s;
}

int Server::ComputeEpollTimeoutMs(int64_t now_ns) {
  // Block forever unless something actually needs a wakeup: the drain
  // tick or the earliest live timer deadline. No fixed-rate tick — an
  // idle server with no timeouts configured makes zero wakeups, which
  // the fault-injection suite pins via Stats::loop_wakeups.
  int timeout_ms = draining_ ? 20 : -1;
  const int64_t next = wheel_.NextDeadlineNs();
  if (next >= 0) {
    int64_t delta_ms = (next - now_ns + 999'999) / 1'000'000;
    if (delta_ms < 0) delta_ms = 0;
    if (delta_ms > std::numeric_limits<int>::max()) {
      delta_ms = std::numeric_limits<int>::max();
    }
    if (timeout_ms < 0 || delta_ms < timeout_ms) {
      timeout_ms = static_cast<int>(delta_ms);
    }
  }
  return timeout_ms;
}

void Server::Loop() {
  std::vector<epoll_event> events(256);
  while (true) {
    const int timeout_ms = ComputeEpollTimeoutMs(NowNs());
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      SCCF_LOG_ERROR << "epoll_wait: " << std::strerror(errno);
      break;
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t mask = events[i].events;
      if (fd == wakeup_fd_) {
        uint64_t drained = 0;
        while (::read(wakeup_fd_, &drained, sizeof(drained)) > 0) {
        }
        if (!draining_) BeginDrain();
        continue;
      }
      if (fd == bgsave_done_fd_) {
        uint64_t drained = 0;
        while (::read(bgsave_done_fd_, &drained, sizeof(drained)) > 0) {
        }
        HandleBgSaveDone();
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection& conn = *it->second;
      if ((mask & (EPOLLERR | EPOLLHUP)) != 0 && (mask & EPOLLIN) == 0) {
        CloseConnection(fd);
        continue;
      }
      if ((mask & EPOLLIN) != 0) ConnectionReadable(conn);
      // Readable handling may have closed the connection; re-look-up.
      auto again = connections_.find(fd);
      if (again == connections_.end()) continue;
      if ((mask & EPOLLOUT) != 0) ConnectionWritable(*again->second);
    }
    ProcessTimers(NowNs());
    if (draining_) {
      if (connections_.empty()) break;
      if (options_.drain_timeout_ms > 0 && NowNs() >= drain_deadline_ns_) {
        SCCF_LOG_WARNING << "drain timeout: force-closing "
                         << connections_.size() << " connection(s)";
        std::vector<int> fds;
        fds.reserve(connections_.size());
        for (const auto& [fd, conn] : connections_) fds.push_back(fd);
        for (int fd : fds) CloseConnection(fd);
        break;
      }
    }
  }
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (int fd : fds) CloseConnection(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // A BGSAVE helper thread may still be running (its connection was
  // force-closed, or drain timed out under it). Its completion callback
  // writes to bgsave_done_fd_, so that fd must stay open until the
  // thread is joined — close it after WaitForSave, never before, or a
  // recycled fd number could take the write.
  engine_->WaitForSave();
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  ::close(bgsave_done_fd_);
  bgsave_done_fd_ = -1;
  // wakeup_fd_ is closed last and left readable until here so that
  // Shutdown() racing the loop exit stays a harmless write.
  ::close(wakeup_fd_);
  wakeup_fd_ = -1;
  // Drain sequence, final step: quiesce the Engine's background thread
  // so process exit after Wait() is clean (no sweeps against a world
  // that is being torn down).
  engine_->StopBackgroundCompaction();
  running_.store(false, std::memory_order_release);
}

void Server::BeginDrain() {
  draining_ = true;
  drain_deadline_ns_ =
      NowNs() + options_.drain_timeout_ms * 1'000'000;
  // 1. Stop accepting.
  wheel_.CancelAll(listen_fd_);  // a pending EMFILE re-arm must not fire
  accept_paused_ = false;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  listen_fd_ = -1;
  // 2. Final read sweep per connection — everything the kernel already
  // has is executed — then half-close reads: bytes sent after this
  // point are not served. 3. happens as buffers flush (each connection
  // closes the moment its pending replies are on the wire; one holding
  // a deferred BGSAVE reply stays until the completion lands, bounded
  // by the drain deadline).
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    ConnectionReadable(conn);
    auto again = connections_.find(fd);
    if (again == connections_.end()) continue;
    ::shutdown(fd, SHUT_RD);
    again->second->read_closed = true;
    ConnectionWritable(*again->second);
  }
}

void Server::AcceptReady() {
  while (listen_fd_ >= 0 && !accept_paused_) {
    const int fd = sys::Accept4(listen_fd_, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds. The backlog is still there, so level-triggered
        // EPOLLIN would re-wake the loop at full spin until something
        // frees an fd — instead drop the listen interest and let the
        // timer wheel re-arm it shortly.
        SCCF_LOG_WARNING
            << "accept: out of file descriptors; pausing accepts";
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_paused_ = true;
        wheel_.Arm(listen_fd_, TimerWheel::Kind::kRearmAccept,
                   NowNs() + kAcceptRearmDelayNs);
        return;
      }
      // Transient per-connection errors (ECONNABORTED etc.): keep going.
      continue;
    }
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      static constexpr char kRefusal[] =
          "-OVERLOADED max connections reached\r\n";
      [[maybe_unused]] const ssize_t n =
          sys::Write(fd, kRefusal, sizeof(kRefusal) - 1);
      ::close(fd);
      refused_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    RequestParser::Limits limits;
    limits.max_frame_bytes = options_.read_buffer_limit;
    conn->parser = RequestParser(limits);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->registered_events = EPOLLIN;
    if (options_.idle_timeout_ms > 0) {
      conn->idle_deadline_ns =
          NowNs() + options_.idle_timeout_ms * 1'000'000;
      wheel_.Arm(fd, TimerWheel::Kind::kIdle, conn->idle_deadline_ns);
    }
    connections_.emplace(fd, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::ConnectionReadable(Connection& conn) {
  if (!conn.read_closed) {
    char buf[16384];
    while (true) {
      const ssize_t r = sys::Read(conn.fd, buf, sizeof(buf));
      if (r > 0) {
        // Hot-path idle refresh is one store; the wheel entry armed at
        // accept re-validates against this when it fires.
        if (options_.idle_timeout_ms > 0) {
          conn.idle_deadline_ns =
              NowNs() + options_.idle_timeout_ms * 1'000'000;
        }
        conn.parser.Feed(std::string_view(buf, static_cast<size_t>(r)));
        continue;
      }
      if (r == 0) {
        // Peer half-closed its write side. Keep the connection until
        // every reply to what it already sent is flushed (nc-style
        // `echo ... | nc` clients depend on this).
        conn.read_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn.fd);
      return;
    }
  }
  // ExecuteParsed may close (and free) the connection on the
  // slow-consumer path; only touch it again if it survived.
  if (!ExecuteParsed(conn)) return;
  ConnectionWritable(conn);
}

bool Server::ExecuteParsed(Connection& conn) {
  Command command;
  std::string error;
  size_t flush_at = kFlushBytes;  // pending bytes that trigger a write
  // A connection holding a deferred BGSAVE reply stops parsing: its
  // later pipelined requests stay buffered until the completion lands,
  // which preserves per-connection reply order by construction.
  while (!conn.close_after_flush && !conn.awaiting_bgsave) {
    const RequestParser::Result result = conn.parser.Next(&command, &error);
    if (result == RequestParser::Result::kNeedMore) break;
    const size_t out_before = conn.out.size();
    if (result == RequestParser::Result::kCommand) {
      const bool over_budget =
          options_.max_inflight_bytes > 0 &&
          inflight_bytes_.load(std::memory_order_relaxed) >
              options_.max_inflight_bytes;
      if (over_budget && command.name != "QUIT") {
        // Admission control, cheapest-first: refuse the command (a
        // ~60-byte error the client can retry) rather than dropping
        // anyone's connection. QUIT stays honored — refusing the one
        // command that *shrinks* load would be self-defeating.
        AppendError(&conn.out, "OVERLOADED",
                    "in-flight reply bytes over budget; retry later");
        shed_.fetch_add(1, std::memory_order_relaxed);
      } else if (command.name == "BGSAVE") {
        // Intercepted ahead of dispatch: the reactor variant defers the
        // reply to the Engine helper thread's completion wakeup. The
        // callback runs on that thread — it only queues the result and
        // pokes the eventfd (raw write: injected faults must not sever
        // the completion channel).
        const uint64_t conn_id = conn.id;
        const int done_fd = bgsave_done_fd_;
        const Status st =
            engine_->BgSave([this, conn_id, done_fd](const Status& s) {
              {
                std::lock_guard<std::mutex> lock(bgsave_mu_);
                bgsave_results_.emplace_back(conn_id, s);
              }
              const uint64_t one = 1;
              [[maybe_unused]] const ssize_t n =
                  ::write(done_fd, &one, sizeof(one));
            });
        commands_.fetch_add(1, std::memory_order_relaxed);
        if (st.ok()) {
          conn.awaiting_bgsave = true;  // reply deferred to completion
        } else {
          // Refused synchronously (-BUSY single-flight, or persistence
          // not configured) — same bytes the dispatch fallback emits.
          AppendSaveReply(&conn.out, st);
        }
      } else {
        if (Execute(*engine_, command, &conn.out)) {
          conn.close_after_flush = true;  // QUIT
        }
        commands_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (result == RequestParser::Result::kError) {
      AppendError(&conn.out, "ERR", error);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    } else {  // kFatal: reply, then drop only this connection
      AppendError(&conn.out, "ERR", error);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn.close_after_flush = true;
    }
    AccountAppended(out_before, conn.out.size());
    if (conn.out.size() - conn.out_offset > options_.write_buffer_limit) {
      // Slow consumer: pipelines faster than it reads. Cut it loose
      // before its backlog eats the process.
      CloseConnection(conn.fd);
      return false;
    }
    // A flush that finds the socket full leaves bytes pending; the next
    // try waits until another kFlushBytes are appended, so a pipeline
    // behind a full socket costs one failed write per kFlushBytes of
    // replies, not one per command.
    if (conn.out.size() - conn.out_offset >= flush_at) {
      if (!FlushPending(conn)) return false;
      flush_at = conn.out.size() - conn.out_offset + kFlushBytes;
    }
  }
  return true;
}

void Server::HandleBgSaveDone() {
  std::vector<std::pair<uint64_t, Status>> results;
  {
    std::lock_guard<std::mutex> lock(bgsave_mu_);
    results.swap(bgsave_results_);
  }
  for (const auto& [conn_id, status] : results) {
    Connection* conn = nullptr;
    for (const auto& [fd, c] : connections_) {
      if (c->id == conn_id) {
        conn = c.get();
        break;
      }
    }
    // Closed while the save ran (timeout, reset, drain force-close):
    // the save itself still completed/failed on its own terms; only
    // the reply has nowhere to go.
    if (conn == nullptr) continue;
    conn->awaiting_bgsave = false;
    const size_t out_before = conn->out.size();
    AppendSaveReply(&conn->out, status);
    AccountAppended(out_before, conn->out.size());
    // Resume the paused pipeline, then flush reply + whatever follows.
    if (!ExecuteParsed(*conn)) continue;
    ConnectionWritable(*conn);
  }
}

void Server::ProcessTimers(int64_t now_ns) {
  for (const TimerWheel::Expired& e : wheel_.PopExpired(now_ns)) {
    if (e.kind == TimerWheel::Kind::kRearmAccept) {
      if (accept_paused_ && listen_fd_ >= 0) {
        accept_paused_ = false;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = listen_fd_;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
          AcceptReady();  // the backlog waited out the backoff
        } else {
          accept_paused_ = true;
          wheel_.Arm(listen_fd_, TimerWheel::Kind::kRearmAccept,
                     now_ns + kAcceptRearmDelayNs);
        }
      }
      continue;
    }
    auto it = connections_.find(e.fd);
    if (it == connections_.end()) continue;  // closed; stale entry
    Connection& conn = *it->second;
    if (e.kind == TimerWheel::Kind::kIdle) {
      if (conn.awaiting_bgsave || conn.idle_deadline_ns > now_ns) {
        // Refreshed since arming (or exempt while a deferred BGSAVE
        // reply is pending) — lazy cancellation's second half: re-arm
        // at the real deadline instead of reaping.
        const int64_t rearm =
            conn.awaiting_bgsave
                ? now_ns + options_.idle_timeout_ms * 1'000'000
                : conn.idle_deadline_ns;
        wheel_.Arm(e.fd, TimerWheel::Kind::kIdle, rearm);
        continue;
      }
      const size_t out_before = conn.out.size();
      AppendError(&conn.out, "TIMEOUT", "idle connection");
      AccountAppended(out_before, conn.out.size());
      conn.close_after_flush = true;
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      ConnectionWritable(conn);  // usually closes right here
    } else {  // kWriteStall
      conn.stall_armed = false;
      if (conn.out_offset >= conn.out.size()) continue;  // backlog drained
      if (conn.stall_deadline_ns > now_ns) {
        wheel_.Arm(e.fd, TimerWheel::Kind::kWriteStall,
                   conn.stall_deadline_ns);
        conn.stall_armed = true;
        continue;
      }
      // No forward progress for the whole window: the peer is wedged,
      // an error reply would only join the unread backlog.
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(e.fd);
    }
  }
}

void Server::AccountAppended(size_t before_size, size_t after_size) {
  inflight_bytes_.fetch_add(after_size - before_size,
                            std::memory_order_relaxed);
}

bool Server::FlushPending(Connection& conn) {
  const size_t offset_before = conn.out_offset;
  while (conn.out_offset < conn.out.size()) {
    const ssize_t w = sys::Write(conn.fd, conn.out.data() + conn.out_offset,
                                 conn.out.size() - conn.out_offset);
    if (w > 0) {
      conn.out_offset += static_cast<size_t>(w);
      inflight_bytes_.fetch_sub(static_cast<size_t>(w),
                                std::memory_order_relaxed);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    CloseConnection(conn.fd);  // EPIPE/ECONNRESET/...
    return false;
  }
  // The stall clock measures *lack of progress*, not backlog age: any
  // written byte resets it, whichever caller wrote it.
  if (options_.write_stall_timeout_ms > 0 &&
      conn.out_offset != offset_before) {
    conn.stall_deadline_ns =
        NowNs() + options_.write_stall_timeout_ms * 1'000'000;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  return true;
}

void Server::ConnectionWritable(Connection& conn) {
  if (!FlushPending(conn)) return;
  if (conn.out.empty()) {
    if ((conn.close_after_flush || conn.read_closed) &&
        !conn.awaiting_bgsave) {
      CloseConnection(conn.fd);
      return;
    }
  }
  if (options_.write_stall_timeout_ms > 0 &&
      conn.out_offset < conn.out.size() && !conn.stall_armed) {
    // A fresh backlog starts a full window (FlushPending refreshes it
    // on every write that makes progress).
    conn.stall_deadline_ns =
        NowNs() + options_.write_stall_timeout_ms * 1'000'000;
    wheel_.Arm(conn.fd, TimerWheel::Kind::kWriteStall,
               conn.stall_deadline_ns);
    conn.stall_armed = true;
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection& conn) {
  // Once reads are closed, EOF keeps a level-triggered EPOLLIN
  // permanently hot — dropping it is what lets a connection that is
  // only flushing its tail wait quietly on EPOLLOUT instead of
  // spinning the loop until the buffer drains.
  const uint32_t want =
      (conn.read_closed ? 0u : static_cast<uint32_t>(EPOLLIN)) |
      (conn.out_offset < conn.out.size() ? static_cast<uint32_t>(EPOLLOUT)
                                         : 0u);
  if (want == conn.registered_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.registered_events = want;
  }
}

void Server::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  inflight_bytes_.fetch_sub(it->second->out.size() - it->second->out_offset,
                            std::memory_order_relaxed);
  wheel_.CancelAll(fd);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
}

}  // namespace sccf::server
