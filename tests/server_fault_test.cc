// Syscall fault injection against the serving and persistence stack,
// driven through sccf::sys (util/syscall_shim.h). Each test swaps table
// entries for faults that are unreachable from a well-behaved kernel:
//
//  * EINTR storms on the reactor's socket loop — replies stay
//    bit-identical to direct dispatch, no connection drops.
//  * Pathological short writes — multi-KB replies delivered in 7-byte
//    slices, still byte-exact.
//  * EMFILE on accept — the listen fd backs off instead of busy-spinning
//    the level-triggered loop (pinned via Stats::loop_wakeups), and the
//    parked client is served once descriptors free up.
//  * ENOSPC mid-snapshot — SAVE fails cleanly, the previous snapshot
//    stays bit-identical on disk, recovery still works, and the next
//    SAVE (space back) succeeds.
//  * A wedged fsync during BGSAVE — other connections keep being served
//    while the save is provably still running, and a concurrent second
//    BGSAVE is refused with -BUSY.
//
// Overrides are installed before Server::Start / the Save call and the
// injected functions are self-contained (atomics + pass-through to
// RealSyscalls), per the shim's threading contract.

#include "util/syscall_shim.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "models/fism.h"
#include "online/engine.h"
#include "persist/fs.h"
#include "server/dispatch.h"
#include "server/protocol.h"
#include "server/server.h"
#include "testing/resp_client.h"
#include "testing/temp_dir.h"
#include "util/logging.h"

namespace sccf::server {
namespace {

// ------------------------------------------------- injected syscalls
//
// Plain functions + file-scope atomics (the table holds bare function
// pointers, so no captures). Every injector passes through to
// sys::RealSyscalls() when its fault condition doesn't hold.

/// What the fd points at, via /proc/self/fd (Linux-only, like the
/// reactor itself). Empty when unreadable.
std::string FdPath(int fd) {
  char link[64];
  std::snprintf(link, sizeof(link), "/proc/self/fd/%d", fd);
  char buf[512];
  const ssize_t n = ::readlink(link, buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  return std::string(buf, static_cast<size_t>(n));
}

bool FdPathEndsWith(int fd, std::string_view suffix) {
  const std::string path = FdPath(fd);
  return path.size() >= suffix.size() &&
         std::string_view(path).substr(path.size() - suffix.size()) == suffix;
}

std::atomic<uint64_t> g_eintr_calls{0};

/// Every other read/write call fails with EINTR before touching the fd.
ssize_t EintrStormRead(int fd, void* buf, size_t count) {
  if (g_eintr_calls.fetch_add(1, std::memory_order_relaxed) % 2 == 0) {
    errno = EINTR;
    return -1;
  }
  return sys::RealSyscalls().read(fd, buf, count);
}
ssize_t EintrStormWrite(int fd, const void* buf, size_t count) {
  if (g_eintr_calls.fetch_add(1, std::memory_order_relaxed) % 2 == 0) {
    errno = EINTR;
    return -1;
  }
  return sys::RealSyscalls().write(fd, buf, count);
}

/// Writes at most 7 bytes per call — a multi-KB reply takes hundreds of
/// calls, every partial-progress branch in the flush loop exercised.
ssize_t ShortWrite(int fd, const void* buf, size_t count) {
  return sys::RealSyscalls().write(fd, buf, count < 7 ? count : 7);
}

std::atomic<int> g_accept_emfile_budget{0};

/// The next `g_accept_emfile_budget` accepts fail with EMFILE (the
/// process is out of descriptors); afterwards accepts are real again.
int EmfileAccept4(int sockfd, struct sockaddr* addr, socklen_t* addrlen,
                  int flags) {
  if (g_accept_emfile_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    errno = EMFILE;
    return -1;
  }
  return sys::RealSyscalls().accept4(sockfd, addr, addrlen, flags);
}

/// The disk is full — but only for snapshot temp files, so journal
/// appends from concurrent ingest stay healthy.
ssize_t EnospcSnapshotWrite(int fd, const void* buf, size_t count) {
  if (FdPathEndsWith(fd, "snapshot.tmp")) {
    errno = ENOSPC;
    return -1;
  }
  return sys::RealSyscalls().write(fd, buf, count);
}

std::atomic<int> g_slow_fsync_ms{0};

/// fsync of snapshot files wedges for g_slow_fsync_ms — long enough
/// that "the reactor kept serving meanwhile" is provable, not timing
/// luck.
int SlowSnapshotFsync(int fd) {
  const int ms = g_slow_fsync_ms.load(std::memory_order_relaxed);
  if (ms > 0 && FdPathEndsWith(fd, "snapshot.tmp")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  return sys::RealSyscalls().fsync(fd);
}

// ------------------------------------------------------------ fixture

class ServerFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "server-fault-test";
    cfg.num_users = 100;
    cfg.num_items = 140;
    cfg.num_clusters = 7;
    cfg.min_actions = 10;
    cfg.max_actions = 25;
    cfg.seed = 71;
    data::SyntheticGenerator gen(cfg);
    auto ds = gen.Generate();
    SCCF_CHECK(ds.ok());
    dataset_ = new data::Dataset(std::move(ds).value());
    split_ = new data::LeaveOneOutSplit(*dataset_);

    models::Fism::Options fopts;
    fopts.dim = 16;
    fopts.epochs = 2;
    fism_ = new models::Fism(fopts);
    SCCF_CHECK(fism_->Fit(*split_).ok());
  }
  static void TearDownTestSuite() {
    delete fism_;
    delete split_;
    delete dataset_;
    fism_ = nullptr;
    split_ = nullptr;
    dataset_ = nullptr;
  }

  static std::unique_ptr<online::Engine> MakeEngine(
      const std::string& recover_dir = "") {
    online::Engine::Options opts;
    opts.beta = 10;
    opts.num_shards = 4;
    opts.recover_dir = recover_dir;
    auto engine = std::make_unique<online::Engine>(*fism_, opts);
    SCCF_CHECK(engine->BootstrapFromSplit(*split_).ok());
    return engine;
  }

  static data::Dataset* dataset_;
  static data::LeaveOneOutSplit* split_;
  static models::Fism* fism_;
};

data::Dataset* ServerFaultTest::dataset_ = nullptr;
data::LeaveOneOutSplit* ServerFaultTest::split_ = nullptr;
models::Fism* ServerFaultTest::fism_ = nullptr;

std::string Dispatch(online::Engine& engine, const Command& cmd) {
  std::string out;
  Execute(engine, cmd, &out);
  return out;
}

using sccf::testing::RespClient;

/// The command mix the storm tests replay against a twin engine.
const std::vector<Command>& Script() {
  static const std::vector<Command>* script = new std::vector<Command>{
      {"PING", {}},
      {"INGEST", {"0", "5", "100", "1", "9", "100", "0", "7", "101"}},
      {"RECOMMEND", {"0", "10"}},
      {"RECOMMEND", {"1", "5", "BETA", "8"}},
      {"NEIGHBORS", {"0"}},
      {"HISTORY", {"0"}},
      {"HISTORY", {"424242"}},                   // NotFound
      {"RECOMMEND", {"0", "10", "BETA", "-5"}},  // InvalidArgument
  };
  return *script;
}

std::string InlineFrame(const Command& cmd) {
  std::string frame = cmd.name;
  for (const std::string& arg : cmd.args) frame += " " + arg;
  frame += "\r\n";
  return frame;
}

// -------------------------------------------------------- EINTR storm

TEST_F(ServerFaultTest, EintrStormRepliesBitIdentical) {
  sys::ScopedSyscallOverride guard;
  guard.table().read = EintrStormRead;
  guard.table().write = EintrStormWrite;

  auto served = MakeEngine();
  auto twin = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  Server server(*served, opts);
  ASSERT_TRUE(server.Start().ok());

  RespClient client(server.port());
  ASSERT_TRUE(client.connected());

  // One-at-a-time, then the same mix pipelined in a single write.
  for (const Command& cmd : Script()) {
    client.Send(InlineFrame(cmd));
    EXPECT_EQ(client.ReadReply(), Dispatch(*twin, cmd)) << cmd.name;
  }
  std::string pipeline;
  std::vector<std::string> expected;
  for (const Command& cmd : Script()) {
    pipeline += InlineFrame(cmd);
    expected.push_back(Dispatch(*twin, cmd));
  }
  client.Send(pipeline);
  for (size_t i = 0; i < Script().size(); ++i) {
    EXPECT_EQ(client.ReadReply(), expected[i]) << Script()[i].name;
  }

  server.Shutdown();
  server.Wait();
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  // The storm actually fired (each socket op averaged two calls).
  EXPECT_GT(g_eintr_calls.load(), Script().size() * 2);
}

// -------------------------------------------------------- short writes

TEST_F(ServerFaultTest, ShortWritesDeliverFullReplies) {
  sys::ScopedSyscallOverride guard;
  guard.table().write = ShortWrite;

  auto served = MakeEngine();
  auto twin = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  Server server(*served, opts);
  ASSERT_TRUE(server.Start().ok());

  RespClient client(server.port());
  ASSERT_TRUE(client.connected());
  // RECOMMEND's multi-KB array reply arrives in 7-byte slices; framing
  // and content must survive unchanged.
  for (const Command& cmd : Script()) {
    client.Send(InlineFrame(cmd));
    EXPECT_EQ(client.ReadReply(), Dispatch(*twin, cmd)) << cmd.name;
  }

  server.Shutdown();
  server.Wait();
}

// ------------------------------------------------------ EMFILE backoff

TEST_F(ServerFaultTest, EmfileAcceptBacksOffWithoutBusySpin) {
  g_accept_emfile_budget.store(2, std::memory_order_relaxed);
  sys::ScopedSyscallOverride guard;
  guard.table().accept4 = EmfileAccept4;

  auto engine = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  Server server(*engine, opts);
  ASSERT_TRUE(server.Start().ok());

  // The TCP handshake completes in the listen backlog regardless of the
  // EMFILE storm; the request waits there until a descriptor frees up.
  const auto t0 = std::chrono::steady_clock::now();
  RespClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("PING\r\n");
  EXPECT_EQ(client.ReadReply(), "+PONG\r\n");
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  // Two EMFILE hits -> two ~100ms backoff cycles before the accept
  // lands. And the whole episode must be a handful of wakeups — a
  // level-triggered loop that kept the hot listen fd registered would
  // burn tens of thousands in those 200ms.
  EXPECT_GE(elapsed, std::chrono::milliseconds(150));
  const Server::Stats stats = server.stats();
  EXPECT_LE(stats.loop_wakeups, 50u);
  EXPECT_EQ(stats.connections_accepted, 1u);

  server.Shutdown();
  server.Wait();
}

// ------------------------------------------------------ ENOSPC in SAVE

TEST_F(ServerFaultTest, EnospcMidSaveLeavesPreviousSnapshotIntact) {
  sccf::testing::TempDir dir;
  const std::string data_dir = dir.file("data");
  auto engine = MakeEngine(data_dir);

  // Snapshot v1.
  ASSERT_EQ(
      Dispatch(*engine, {"INGEST", {"0", "5", "100", "1", "9", "101"}})
          .rfind("*3\r\n", 0),
      0u);
  ASSERT_TRUE(engine->Save().ok());
  auto v1 = persist::ReadFileToString(data_dir + "/snapshot");
  ASSERT_TRUE(v1.ok());

  // More (journaled) ingest, then the disk fills mid-snapshot.
  ASSERT_EQ(
      Dispatch(*engine, {"INGEST", {"2", "11", "102", "0", "3", "103"}})
          .rfind("*3\r\n", 0),
      0u);
  {
    sys::ScopedSyscallOverride guard;
    guard.table().write = EnospcSnapshotWrite;
    const Status st = engine->Save();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  }

  // The failed save left no debris: previous snapshot bit-identical,
  // no orphaned temp file.
  auto after = persist::ReadFileToString(data_dir + "/snapshot");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*v1, *after);
  EXPECT_FALSE(persist::PathExists(data_dir + "/snapshot.tmp"));

  // Recovery from v1 + journal reproduces the live engine exactly —
  // nothing ingested after v1 was lost to the failed save.
  auto recovered = MakeEngine(data_dir);
  const std::vector<Command> probes = {
      {"HISTORY", {"0"}},      {"HISTORY", {"1"}},  {"HISTORY", {"2"}},
      {"NEIGHBORS", {"0"}},    {"RECOMMEND", {"0", "10"}},
      {"RECOMMEND", {"2", "5"}},
  };
  for (const Command& probe : probes) {
    EXPECT_EQ(Dispatch(*recovered, probe), Dispatch(*engine, probe))
        << probe.name << " " << (probe.args.empty() ? "" : probe.args[0]);
  }

  // Space back: the next save succeeds and advances the snapshot.
  ASSERT_TRUE(engine->Save().ok());
  auto v2 = persist::ReadFileToString(data_dir + "/snapshot");
  ASSERT_TRUE(v2.ok());
  EXPECT_NE(*v1, *v2);
}

// --------------------------------------------------- wedged-fsync BGSAVE

TEST_F(ServerFaultTest, WedgedFsyncBgSaveKeepsServingAndSecondGetsBusy) {
  g_slow_fsync_ms.store(1000, std::memory_order_relaxed);
  sys::ScopedSyscallOverride guard;
  guard.table().fsync = SlowSnapshotFsync;

  sccf::testing::TempDir dir;
  auto engine = MakeEngine(dir.file("data"));
  ServerOptions opts;
  opts.port = 0;
  Server server(*engine, opts);
  ASSERT_TRUE(server.Start().ok());

  RespClient saver(server.port());
  RespClient other(server.port());
  ASSERT_TRUE(saver.connected());
  ASSERT_TRUE(other.connected());

  // BGSAVE wedges in fsync for a full second on the helper thread. The
  // reactor keeps answering: the PONG lands while the save is provably
  // still running — not "the save happened to be fast".
  saver.Send("BGSAVE\r\n");
  other.Send("PING\r\n");
  EXPECT_EQ(other.ReadReply(), "+PONG\r\n");
  EXPECT_TRUE(engine->save_in_progress());

  // Single flight: a concurrent second BGSAVE is refused immediately.
  other.Send("BGSAVE\r\n");
  EXPECT_EQ(other.ReadReply(), "-BUSY save already in progress\r\n");
  EXPECT_TRUE(engine->save_in_progress());

  // The wedged save still completes and delivers its deferred reply.
  EXPECT_EQ(saver.ReadReply(), "+OK\r\n");
  other.Send("LASTSAVE\r\n");
  EXPECT_NE(other.ReadReply(), ":-1\r\n");

  server.Shutdown();
  server.Wait();
  g_slow_fsync_ms.store(0, std::memory_order_relaxed);
}

}  // namespace
}  // namespace sccf::server
