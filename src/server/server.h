#ifndef SCCF_SERVER_SERVER_H_
#define SCCF_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "online/engine.h"
#include "server/protocol.h"
#include "server/timer_wheel.h"
#include "util/status.h"

namespace sccf::server {

struct ServerOptions {
  /// IPv4 address to bind; "0.0.0.0" serves all interfaces.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 lets the kernel pick one (see Server::port(), used by
  /// the loopback tests to avoid collisions).
  uint16_t port = 7700;
  /// Concurrent-connection cap. Excess accepts are answered with a
  /// best-effort `-OVERLOADED max connections reached` and closed
  /// immediately, so a flood degrades loudly instead of starving the
  /// event loop.
  int max_connections = 1024;
  /// Per-connection cap on one request frame's encoded size (fed to the
  /// protocol parser). A client streaming an unbounded frame is cut off
  /// with a protocol error instead of growing the read buffer forever.
  size_t read_buffer_limit = 1 << 20;
  /// Per-connection cap on buffered unsent reply bytes. A consumer that
  /// pipelines heavy queries but never reads is disconnected when its
  /// backlog passes this (slow-consumer protection for the other
  /// connections sharing the loop).
  size_t write_buffer_limit = 64u << 20;
  /// Upper bound on the graceful drain: connections still unflushed
  /// this long after Shutdown() are force-closed so SIGTERM always
  /// terminates. <= 0 waits forever.
  int64_t drain_timeout_ms = 5000;
  /// Idle reaping: a connection that sends no bytes for this long is
  /// answered `-TIMEOUT idle connection` and closed, freeing its slot
  /// for the max_connections budget. 0 disables (the default — loopback
  /// tests and trusted meshes don't want surprise reaps).
  int64_t idle_timeout_ms = 0;
  /// Write-stall reaping: a connection whose reply backlog makes no
  /// forward progress for this long (peer stopped reading) is
  /// force-closed. Complements write_buffer_limit, which only catches
  /// consumers slow enough to accumulate bytes — this catches ones that
  /// are simply wedged. 0 disables.
  int64_t write_stall_timeout_ms = 0;
  /// Global admission budget: when the sum of unflushed reply bytes
  /// across all connections exceeds this, newly parsed commands are
  /// refused with `-OVERLOADED` (QUIT still honored) until the backlog
  /// drains. Sheds cheapest-first: commands are refused before any
  /// connection is dropped. 0 disables (unlimited).
  size_t max_inflight_bytes = 0;
};

/// Single-threaded epoll reactor serving the SCCF wire protocol
/// (server/protocol.h) over `online::Engine` (the engine outlives the
/// server; the server never owns it).
///
/// Threading model: Start() binds/listens, then spawns ONE loop thread
/// that does everything — level-triggered epoll over the listen socket,
/// an eventfd (shutdown wakeup), and every connection; non-blocking
/// accept/read/write; command execution inline on the loop thread.
/// There is deliberately no worker pool at this layer: the Engine is
/// already internally sharded and thread-safe, so the scaling story is
/// "run the loop, let the Engine's shards do the parallel work" — and a
/// one-thread reactor makes the reply order per connection trivially
/// the request order (pipelining correctness by construction).
///
/// Graceful drain (what SIGTERM maps to in sccf_server): Shutdown() is
/// async-signal-safe (a single eventfd write). The loop then
///   1. stops accepting (listen socket closed),
///   2. does a final read sweep per connection and half-closes reads —
///      requests already received are executed, later bytes are not,
///   3. flushes every pending reply byte, closing each connection as
///      its buffer empties (in-flight responses complete),
///   4. stops the Engine's background compaction thread and returns,
/// bounded by ServerOptions::drain_timeout_ms. Wait() joins the loop
/// thread; the destructor does Shutdown() + Wait() if still running.
///
/// Error isolation: a malformed frame answers `-ERR ...`; a fatally
/// desynchronized or oversized frame additionally closes that one
/// connection. Other connections never observe it.
///
/// Overload resilience (see docs/OPERATIONS.md "Overload &
/// availability"):
///   - BGSAVE runs on an Engine helper thread; the issuing connection's
///     reply is deferred (its later pipelined requests stay buffered,
///     preserving order) and delivered via an eventfd completion wakeup
///     while every other connection keeps being served.
///   - A lazy-cancellation timer wheel drives idle and write-stall
///     deadlines plus the accept re-arm backoff; the epoll timeout is
///     derived from the earliest live deadline, so a server with no
///     timers armed blocks indefinitely (zero idle wakeups — pinned by
///     the fault-injection suite via Stats::loop_wakeups).
///   - EMFILE/ENFILE on accept pauses the listen fd's EPOLLIN and
///     re-arms it ~100ms later instead of busy-spinning the
///     level-triggered loop.
///   - Connection read/write/accept go through sccf::sys (the syscall
///     fault-injection shim); the two eventfds stay on raw syscalls so
///     injected faults can never sever the loop's own wakeup channel.
class Server {
 public:
  Server(online::Engine& engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the loop thread. Once per Server.
  Status Start();

  /// The bound port (resolves ServerOptions::port == 0). Valid after
  /// Start() succeeds.
  uint16_t port() const { return port_; }

  /// Begins the graceful drain. Async-signal-safe (one write(2) to an
  /// eventfd) and idempotent; safe from any thread or signal handler.
  void Shutdown();

  /// Joins the loop thread (returns immediately if never started).
  void Wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Loop-thread counters, readable from any thread.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_refused = 0;
    uint64_t commands_executed = 0;
    uint64_t protocol_errors = 0;
    /// Connections reaped by the idle or write-stall deadline.
    uint64_t connections_timed_out = 0;
    /// Commands refused with -OVERLOADED by the in-flight byte budget.
    uint64_t commands_shed = 0;
    /// epoll_wait returns. The fault-injection suite asserts this stays
    /// bounded under EINTR/EMFILE storms — the no-busy-spin contract.
    uint64_t loop_wakeups = 0;
    /// Current sum of unflushed reply bytes (the admission signal); the
    /// overload tests poll this to sequence deterministically.
    uint64_t inflight_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;  // monotonic; BGSAVE completions address by id, not
                      // fd (the kernel recycles fds, ids never lie)
    RequestParser parser;
    std::string out;       // serialized replies not yet written
    size_t out_offset = 0; // flushed prefix of `out`
    bool close_after_flush = false;
    bool read_closed = false;  // EOF seen or reads half-closed by drain
    /// BGSAVE issued, completion not yet delivered: parsing is paused
    /// (later pipelined requests stay buffered — reply order preserved
    /// by construction) and the connection is exempt from idle reaping
    /// and from close-on-flush until the deferred reply lands.
    bool awaiting_bgsave = false;
    bool stall_armed = false;  // a kWriteStall wheel entry is live
    /// Lazy-refresh deadlines: the hot paths only store here; the wheel
    /// entry armed at accept/arm time re-validates against these when
    /// it fires and re-arms itself if the deadline moved.
    int64_t idle_deadline_ns = 0;
    int64_t stall_deadline_ns = 0;
    uint32_t registered_events = 0;  // epoll interest currently installed
  };

  void Loop();
  void AcceptReady();
  /// Reads until EAGAIN/EOF and executes every complete frame.
  void ConnectionReadable(Connection& conn);
  /// Writes until EAGAIN or the buffer empties; updates EPOLLOUT
  /// interest; closes when flushed and the connection is finished.
  void ConnectionWritable(Connection& conn);
  /// Writes until EAGAIN or the buffer empties, refreshes the write-stall
  /// deadline if it wrote anything, and restarts an emptied buffer.
  /// Returns false if a write error closed (and destroyed) `conn`.
  bool FlushPending(Connection& conn);
  /// Drains the parser and executes every complete frame, writing the
  /// replies out whenever kFlushBytes more of them are pending than the
  /// last write left behind. Returns false if it closed (and thereby
  /// destroyed) `conn` — the slow-consumer cut or a write error — in
  /// which case the caller must not touch `conn` again.
  bool ExecuteParsed(Connection& conn);
  void UpdateInterest(Connection& conn);
  void CloseConnection(int fd);
  void BeginDrain();
  /// Delivers queued BGSAVE completions: appends the deferred reply,
  /// resumes the connection's paused parse, flushes.
  void HandleBgSaveDone();
  /// Fires expired wheel entries (idle reap, write-stall cut, accept
  /// re-arm), re-validating each against the connection's current
  /// deadline (lazy cancellation).
  void ProcessTimers(int64_t now_ns);
  /// epoll_wait timeout from the drain tick and the earliest live wheel
  /// deadline; -1 (block forever) when neither applies.
  int ComputeEpollTimeoutMs(int64_t now_ns);
  /// Adjusts the global unflushed-reply-byte account by the growth of
  /// `conn.out` across an append site.
  void AccountAppended(size_t before_size, size_t after_size);

  online::Engine* engine_;
  ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;       // eventfd: Shutdown() -> loop wakeup
  int bgsave_done_fd_ = -1;  // eventfd: BGSAVE helper thread -> loop

  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  bool draining_ = false;
  bool accept_paused_ = false;  // EMFILE backoff holds EPOLLIN off listen_fd_
  int64_t drain_deadline_ns_ = 0;
  uint64_t next_connection_id_ = 1;
  /// Sum of unflushed reply bytes across all connections — the
  /// admission-control signal. Written only by the loop thread; atomic
  /// so stats() can read it from outside.
  std::atomic<size_t> inflight_bytes_{0};

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  TimerWheel wheel_;  // loop thread only

  /// BGSAVE completions cross from the Engine helper thread to the loop
  /// thread here: push under the mutex, then one raw eventfd write.
  std::mutex bgsave_mu_;
  std::vector<std::pair<uint64_t, Status>> bgsave_results_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> commands_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> timed_out_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> wakeups_{0};
};

}  // namespace sccf::server

#endif  // SCCF_SERVER_SERVER_H_
