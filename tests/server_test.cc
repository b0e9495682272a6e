// The network front end, two layers deep:
//
//  * dispatch (no sockets): command execution against a live Engine,
//    including the wire-visible pins of the Engine validation contract
//    (negative n / BETA / ids answer -INVALIDARGUMENT, never crash).
//  * reactor (loopback sockets): server replies bit-identical to the
//    same commands executed directly against a twin Engine; malformed
//    frames poison only their own connection; graceful drain completes
//    in-flight pipelines; the connection cap refuses loudly.
//
// Overload-resilience coverage (same fixture): idle-timeout reaping
// frees the slot with an explicit -TIMEOUT, the in-flight byte budget
// sheds new commands with -OVERLOADED while the congesting pipeline
// still completes, and BGSAVE — deferred through the Engine helper
// thread — produces a snapshot bit-identical to a synchronous SAVE at
// the same horizon and stays recoverable under concurrent ingest.

#include "server/server.h"

#include <chrono>
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
#include "server/timer_wheel.h"
#include "testing/resp_client.h"
#include "testing/temp_dir.h"
#include "util/logging.h"

namespace sccf::server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticConfig cfg;
    cfg.name = "server-test";
    cfg.num_users = 120;
    cfg.num_items = 160;
    cfg.num_clusters = 8;
    cfg.min_actions = 10;
    cfg.max_actions = 30;
    cfg.seed = 53;
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

  /// A freshly bootstrapped engine over the shared corpus. Each call
  /// returns an identical twin (same model, same bootstrap state). With
  /// `recover_dir` set the twin is persistent: it recovers whatever the
  /// directory holds and journals every ingest there.
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

data::Dataset* ServerTest::dataset_ = nullptr;
data::LeaveOneOutSplit* ServerTest::split_ = nullptr;
models::Fism* ServerTest::fism_ = nullptr;

std::string Dispatch(online::Engine& engine, const Command& cmd) {
  std::string out;
  Execute(engine, cmd, &out);
  return out;
}

// ------------------------------------------------------------ dispatch

TEST_F(ServerTest, DispatchPingAndQuit) {
  auto engine = MakeEngine();
  EXPECT_EQ(Dispatch(*engine, {"PING", {}}), "+PONG\r\n");
  std::string out;
  EXPECT_TRUE(Execute(*engine, {"QUIT", {}}, &out));
  EXPECT_EQ(out, "+OK\r\n");
  EXPECT_FALSE(Execute(*engine, {"PING", {}}, &out));
}

TEST_F(ServerTest, DispatchUnknownCommand) {
  auto engine = MakeEngine();
  const std::string reply = Dispatch(*engine, {"FROBNICATE", {"1"}});
  EXPECT_EQ(reply.rfind("-ERR ", 0), 0u) << reply;
}

// The satellite bugfix, pinned at the wire: a negative BETA / n / id
// must surface the Engine's InvalidArgument as an error reply. Before
// the signed-field fix a parsed "-5" wrapped into a huge size_t and
// sailed through validation.
TEST_F(ServerTest, DispatchNegativeKnobsAreInvalidArgument) {
  auto engine = MakeEngine();
  for (const Command& cmd : std::vector<Command>{
           {"RECOMMEND", {"5", "-7"}},
           {"RECOMMEND", {"5", "0"}},
           {"RECOMMEND", {"5", "10", "BETA", "-3"}},
           {"RECOMMEND", {"5", "10", "BETA", "0"}},
           {"NEIGHBORS", {"5", "BETA", "-4"}},
           {"NEIGHBORS", {"5", "BETA", "0"}},
           // Huge-but-positive knobs parse fine and must be rejected by
           // the Engine cap — before it, this n reached the top-k
           // accumulator as a near-2^62 reserve() and terminated the
           // process from the epoll thread.
           {"RECOMMEND", {"5", "4611686018427387904"}},
           {"RECOMMEND", {"5", "10", "BETA", "4611686018427387904"}},
           {"NEIGHBORS", {"5", "BETA", "4611686018427387904"}},
       }) {
    const std::string reply = Dispatch(*engine, cmd);
    EXPECT_EQ(reply.rfind("-INVALIDARGUMENT ", 0), 0u)
        << cmd.name << " replied: " << reply;
  }
  // Negative ids in INGEST reject the whole batch atomically.
  const std::string reply =
      Dispatch(*engine, {"INGEST", {"3", "7", "0", "3", "8", "-12"}});
  EXPECT_EQ(reply.rfind("-INVALIDARGUMENT ", 0), 0u) << reply;
  auto history = engine->History({3});
  ASSERT_TRUE(history.ok());
  auto twin = MakeEngine();
  auto twin_history = twin->History({3});
  ASSERT_TRUE(twin_history.ok());
  EXPECT_EQ(history->items, twin_history->items)
      << "rejected batch must not mutate state";
}

TEST_F(ServerTest, DispatchMalformedArguments) {
  auto engine = MakeEngine();
  for (const Command& cmd : std::vector<Command>{
           {"RECOMMEND", {}},
           {"RECOMMEND", {"abc", "10"}},
           {"RECOMMEND", {"5", "10", "BOGUS"}},
           {"NEIGHBORS", {}},
           {"NEIGHBORS", {"5", "WAT", "3"}},
           {"HISTORY", {}},
           {"HISTORY", {"1", "2"}},
           {"HISTORY", {"99999999999999999999"}},  // > int32: reject
           {"INGEST", {"1", "2"}},                 // not triples
           {"INGEST", {"1", "2", "x"}},
       }) {
    const std::string reply = Dispatch(*engine, cmd);
    EXPECT_EQ(reply.rfind("-ERR ", 0), 0u)
        << cmd.name << " replied: " << reply;
  }
}

TEST_F(ServerTest, DispatchHistoryRoundTrip) {
  auto engine = MakeEngine();
  ASSERT_EQ(Dispatch(*engine, {"INGEST", {"0", "5", "100", "0", "9", "101"}})
                .rfind("*3\r\n", 0),
            0u);
  auto direct = engine->History({0});
  ASSERT_TRUE(direct.ok());
  std::string expected;
  AppendArrayHeader(&expected, direct->items.size());
  for (int item : direct->items) AppendInteger(&expected, item);
  EXPECT_EQ(Dispatch(*engine, {"HISTORY", {"0"}}), expected);
}

TEST_F(ServerTest, DispatchStatsShape) {
  auto engine = MakeEngine();
  const std::string reply = Dispatch(*engine, {"STATS", {}});
  EXPECT_EQ(reply.rfind("*18\r\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("num_users"), std::string::npos);
  EXPECT_NE(reply.find("pending_upserts"), std::string::npos);
  EXPECT_NE(reply.find("save_in_progress"), std::string::npos);
  EXPECT_NE(reply.find("last_save_duration_ms"), std::string::npos);
  EXPECT_NE(reply.find("embedding_bytes"), std::string::npos);
  EXPECT_NE(reply.find("code_bytes"), std::string::npos);
  EXPECT_NE(reply.find("tombstones"), std::string::npos);
}

// SHARDSTATS: one nested 14-element k/v array per shard, so operators
// can spot hot/cold shard imbalance. The per-shard byte counters must
// sum to the STATS totals (fp32 engine: all embedding bytes, no codes).
TEST_F(ServerTest, DispatchShardStatsShape) {
  auto engine = MakeEngine();
  const std::string reply = Dispatch(*engine, {"SHARDSTATS", {}});
  EXPECT_EQ(reply.rfind("*4\r\n", 0), 0u) << reply;  // num_shards = 4
  size_t nested = 0;
  for (size_t pos = reply.find("*14\r\n"); pos != std::string::npos;
       pos = reply.find("*14\r\n", pos + 1)) {
    ++nested;
  }
  EXPECT_EQ(nested, 4u) << reply;
  for (const char* key : {"shard", "users", "index_rows",
                          "embedding_bytes", "code_bytes", "tombstones",
                          "staged_rows"}) {
    EXPECT_NE(reply.find(key), std::string::npos) << key;
  }
  const auto shards = engine->ShardStats();
  ASSERT_EQ(shards.size(), 4u);
  size_t users = 0, embedding_bytes = 0;
  for (const auto& s : shards) {
    users += s.users;
    embedding_bytes += s.embedding_bytes;
    EXPECT_EQ(s.code_bytes, 0u);  // fp32 engine holds no codes
  }
  EXPECT_EQ(users, engine->num_users());
  EXPECT_GT(embedding_bytes, 0u);
  EXPECT_EQ(engine->Stats().embedding_bytes, embedding_bytes);
}

// The "never saved" sentinel: LASTSAVE must be distinguishable from a
// save that landed at epoch 0, and save-free STATS advertises the same
// via last_save_duration_ms.
TEST_F(ServerTest, DispatchLastSaveNeverSavedIsMinusOne) {
  auto engine = MakeEngine();
  EXPECT_EQ(Dispatch(*engine, {"LASTSAVE", {}}), ":-1\r\n");
  const std::string stats = Dispatch(*engine, {"STATS", {}});
  EXPECT_NE(stats.find(":-1\r\n"), std::string::npos) << stats;
  // Without --data_dir both save commands refuse identically.
  EXPECT_EQ(Dispatch(*engine, {"SAVE", {}})
                .rfind("-FAILEDPRECONDITION ", 0),
            0u);
  EXPECT_EQ(Dispatch(*engine, {"BGSAVE", {}})
                .rfind("-FAILEDPRECONDITION ", 0),
            0u);
}

// ---------------------------------------------------- loopback helpers

using sccf::testing::RespClient;

std::string EncodeMultibulk(const Command& cmd) {
  std::string out;
  AppendArrayHeader(&out, cmd.args.size() + 1);
  AppendBulkString(&out, cmd.name);
  for (const std::string& arg : cmd.args) AppendBulkString(&out, arg);
  return out;
}

// ----------------------------------------------------- loopback server

TEST_F(ServerTest, LoopbackBitIdenticalToDirectDispatch) {
  auto served = MakeEngine();
  auto twin = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  Server server(*served, opts);
  ASSERT_TRUE(server.Start().ok());

  // All four Engine commands plus STATS and error paths, mutations
  // included — the twin executes the identical sequence locally, and
  // every reply must match byte for byte (deterministic float
  // serialization is what makes this possible).
  const std::vector<Command> script = {
      {"PING", {}},
      {"INGEST", {"0", "5", "100", "1", "9", "100", "0", "7", "101"}},
      {"RECOMMEND", {"0", "10"}},
      {"RECOMMEND", {"1", "5", "BETA", "8"}},
      {"RECOMMEND", {"1", "5", "WITHSEEN"}},
      {"NEIGHBORS", {"0"}},
      {"NEIGHBORS", {"1", "BETA", "4"}},
      {"HISTORY", {"0"}},
      {"HISTORY", {"424242"}},  // NotFound, identically serialized
      {"RECOMMEND", {"0", "10", "BETA", "-5"}},  // InvalidArgument
      {"STATS", {}},
  };

  RespClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (const Command& cmd : script) {
    client.Send(EncodeMultibulk(cmd));
    EXPECT_EQ(client.ReadReply(), Dispatch(*twin, cmd)) << cmd.name;
  }

  // Same script again, pipelined in one write and framed inline, to pin
  // framing-independence of the replies.
  std::string pipeline;
  std::vector<std::string> expected;
  for (const Command& cmd : script) {
    pipeline += cmd.name;
    for (const std::string& arg : cmd.args) pipeline += " " + arg;
    pipeline += "\r\n";
    expected.push_back(Dispatch(*twin, cmd));
  }
  client.Send(pipeline);
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(client.ReadReply(), expected[i]) << script[i].name;
  }

  server.Shutdown();
  server.Wait();
  EXPECT_FALSE(server.running());
}

TEST_F(ServerTest, MalformedFramePoisonsOnlyItsConnection) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  Server server(*engine, opts);
  ASSERT_TRUE(server.Start().ok());

  RespClient healthy(server.port());
  RespClient broken(server.port());
  ASSERT_TRUE(healthy.connected());
  ASSERT_TRUE(broken.connected());

  // Recoverable error first: the connection survives `*0`.
  broken.Send("*0\r\n");
  EXPECT_EQ(broken.ReadReply().rfind("-ERR ", 0), 0u);
  broken.Send("PING\r\n");
  EXPECT_EQ(broken.ReadReply(), "+PONG\r\n");

  // Fatal garbage: an error reply, then the connection is closed —
  // and the other connection never notices.
  broken.Send("*1\r\nGARBAGE\r\n");
  EXPECT_EQ(broken.ReadReply().rfind("-ERR ", 0), 0u);
  EXPECT_TRUE(broken.ReadEof());

  healthy.Send("PING\r\n");
  EXPECT_EQ(healthy.ReadReply(), "+PONG\r\n");

  server.Shutdown();
  server.Wait();
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_GE(stats.protocol_errors, 2u);
}

TEST_F(ServerTest, GracefulDrainCompletesInFlightPipeline) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  Server server(*engine, opts);
  ASSERT_TRUE(server.Start().ok());

  // A deep pipeline in one write; read one reply to guarantee the
  // server has the rest buffered, then begin the drain mid-stream.
  constexpr int kPipeline = 64;
  std::string batch;
  for (int i = 0; i < kPipeline; ++i) {
    batch += "RECOMMEND " + std::to_string(i % 50) + " 10\r\n";
  }
  RespClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(batch);
  const std::string first = client.ReadReply();
  EXPECT_EQ(first.rfind("*", 0), 0u) << first;

  server.Shutdown();

  // Every remaining in-flight reply still arrives, then clean EOF.
  int received = 1;
  while (true) {
    const std::string reply = client.ReadReply();
    if (reply.empty()) break;
    EXPECT_EQ(reply.rfind("*", 0), 0u) << "reply " << received;
    ++received;
  }
  EXPECT_EQ(received, kPipeline);

  server.Wait();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(engine->background_compaction_running());
}

TEST_F(ServerTest, SlowConsumerBacklogClosesOnlyItsConnection) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  opts.write_buffer_limit = 2048;
  Server server(*engine, opts);
  ASSERT_TRUE(server.Start().ok());

  RespClient greedy(server.port());
  RespClient healthy(server.port());
  ASSERT_TRUE(greedy.connected());
  ASSERT_TRUE(healthy.connected());

  // Pipeline far more reply bytes than the cap in one write, reading
  // nothing back: the whole batch lands in one read sweep, so the
  // slow-consumer cut fires *inside* the readable handler — the
  // regression here was the handler then touching the freed
  // connection. The stream must simply end (no reply desync, no
  // crash), and the other connection must never notice.
  std::string batch;
  for (int i = 0; i < 256; ++i) {
    batch += "RECOMMEND " + std::to_string(i % 50) + " 50\r\n";
  }
  greedy.Send(batch);
  while (!greedy.ReadReply().empty()) {
  }

  healthy.Send("PING\r\n");
  EXPECT_EQ(healthy.ReadReply(), "+PONG\r\n");

  server.Shutdown();
  server.Wait();
  EXPECT_FALSE(server.running());
}

TEST_F(ServerTest, ConnectionCapRefusesLoudly) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  opts.max_connections = 1;
  Server server(*engine, opts);
  ASSERT_TRUE(server.Start().ok());

  RespClient first(server.port());
  ASSERT_TRUE(first.connected());
  first.Send("PING\r\n");
  EXPECT_EQ(first.ReadReply(), "+PONG\r\n");  // ensures accept happened

  RespClient second(server.port());
  ASSERT_TRUE(second.connected());  // kernel accepts; server refuses
  const std::string refusal = second.ReadReply();
  EXPECT_EQ(refusal, "-OVERLOADED max connections reached\r\n");
  EXPECT_TRUE(second.ReadEof());

  // The surviving connection is unaffected, and a slot freed by QUIT
  // can be reused.
  first.Send("QUIT\r\n");
  EXPECT_EQ(first.ReadReply(), "+OK\r\n");
  EXPECT_TRUE(first.ReadEof());
  RespClient third(server.port());
  ASSERT_TRUE(third.connected());
  third.Send("PING\r\n");
  EXPECT_EQ(third.ReadReply(), "+PONG\r\n");

  server.Shutdown();
  server.Wait();
  EXPECT_GE(server.stats().connections_refused, 1u);
}

// ------------------------------------------------- overload resilience

// The lazy-cancellation contract of the reactor's deadline source,
// pinned directly: re-arming supersedes, cancellation survives fd
// recycling, and the next-deadline view prunes stale heads.
TEST_F(ServerTest, TimerWheelLazyCancellation) {
  TimerWheel wheel;
  EXPECT_EQ(wheel.NextDeadlineNs(), -1);  // nothing armed: sleep forever

  wheel.Arm(5, TimerWheel::Kind::kIdle, 100);
  wheel.Arm(7, TimerWheel::Kind::kIdle, 50);
  EXPECT_EQ(wheel.NextDeadlineNs(), 50);

  // Refresh fd 7 later than fd 5: the stale 50 entry must neither fire
  // nor show up as the next deadline.
  wheel.Arm(7, TimerWheel::Kind::kIdle, 200);
  EXPECT_EQ(wheel.NextDeadlineNs(), 100);
  auto fired = wheel.PopExpired(99);
  EXPECT_TRUE(fired.empty());
  fired = wheel.PopExpired(100);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].fd, 5);

  // Distinct kinds on one fd coexist; CancelAll kills both, and a
  // recycled fd starts clean.
  wheel.Arm(7, TimerWheel::Kind::kWriteStall, 150);
  wheel.CancelAll(7);
  EXPECT_EQ(wheel.NextDeadlineNs(), -1);
  EXPECT_TRUE(wheel.PopExpired(1000).empty());
  wheel.Arm(7, TimerWheel::Kind::kIdle, 300);
  fired = wheel.PopExpired(300);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, TimerWheel::Kind::kIdle);
}

TEST_F(ServerTest, IdleTimeoutReapsWithExplicitErrorAndFreesSlot) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  opts.max_connections = 1;  // the reap must free the only slot
  opts.idle_timeout_ms = 150;
  Server server(*engine, opts);
  ASSERT_TRUE(server.Start().ok());

  RespClient idler(server.port());
  ASSERT_TRUE(idler.connected());
  idler.Send("PING\r\n");
  EXPECT_EQ(idler.ReadReply(), "+PONG\r\n");

  // Say nothing past the deadline: the server must announce the reap —
  // not silently reset — and then close.
  EXPECT_EQ(idler.ReadReply(), "-TIMEOUT idle connection\r\n");
  EXPECT_TRUE(idler.ReadEof());

  // The slot is genuinely free again (max_connections = 1).
  RespClient next(server.port());
  ASSERT_TRUE(next.connected());
  next.Send("PING\r\n");
  EXPECT_EQ(next.ReadReply(), "+PONG\r\n");

  server.Shutdown();
  server.Wait();
  const Server::Stats stats = server.stats();
  EXPECT_GE(stats.connections_timed_out, 1u);
  EXPECT_EQ(stats.connections_refused, 0u);
}

TEST_F(ServerTest, ByteBudgetShedsNewCommandsWhilePipelineCompletes) {
  auto engine = MakeEngine();
  ServerOptions opts;
  opts.port = 0;
  opts.max_inflight_bytes = 16 * 1024;
  Server server(*engine, opts);
  ASSERT_TRUE(server.Start().ok());

  // The congesting client: waves of fat-reply commands, nothing read
  // back (and a tiny receive window). Waves keep coming until the
  // server's unflushed account is over budget AND settled — a settled
  // account means the reactor has flushed to EAGAIN, so what remains
  // genuinely cannot drain (greedy never reads; the kernel path is
  // saturated). Polling for a merely *transient* over-budget reading
  // would race the flush that absorbs it.
  RespClient greedy(server.port(), 4096);
  RespClient healthy(server.port());
  ASSERT_TRUE(greedy.connected());
  ASSERT_TRUE(healthy.connected());
  constexpr int kWave = 256;
  int sent = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "backlog never settled over the budget (sent " << sent << ")";
    std::string wave;
    for (int i = 0; i < kWave; ++i, ++sent) {
      wave += "RECOMMEND " + std::to_string(sent % 50) + " 150\r\n";
    }
    greedy.Send(wave);
    // Wait for the account to stop moving (wave executed + flushed).
    uint64_t last = server.stats().inflight_bytes;
    auto stable_since = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - stable_since <
           std::chrono::milliseconds(25)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const uint64_t cur = server.stats().inflight_bytes;
      if (cur != last) {
        last = cur;
        stable_since = std::chrono::steady_clock::now();
      }
    }
    if (last > opts.max_inflight_bytes) break;  // stable over budget
  }

  // Over budget: a new command is refused loudly. The greedy pipeline
  // is NOT dropped — shedding refuses the cheapest unit first.
  healthy.Send("PING\r\n");
  EXPECT_EQ(healthy.ReadReply(),
            "-OVERLOADED in-flight reply bytes over budget; retry later\r\n");

  // The congesting pipeline still completes: exactly one reply per
  // command, in order, every one parseable. Commands executed before
  // the budget tripped answer normally; ones parsed after it are shed
  // with the same -OVERLOADED (they are "new commands" too — the
  // budget is per command, not per connection). No reply is lost and
  // the connection is never dropped.
  int full_replies = 0;
  int shed_replies = 0;
  for (int received = 0; received < sent; ++received) {
    const std::string reply = greedy.ReadReply();
    ASSERT_FALSE(reply.empty()) << "pipeline cut short at " << received;
    if (reply.rfind("*", 0) == 0) {
      ++full_replies;
    } else {
      EXPECT_EQ(reply.rfind("-OVERLOADED ", 0), 0u) << reply;
      ++shed_replies;
    }
  }
  EXPECT_GT(full_replies, 0);
  EXPECT_GT(shed_replies, 0);

  // Backlog drained: admission reopens.
  const auto reopen_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().inflight_bytes > opts.max_inflight_bytes) {
    ASSERT_LT(std::chrono::steady_clock::now(), reopen_deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  healthy.Send("PING\r\n");
  EXPECT_EQ(healthy.ReadReply(), "+PONG\r\n");

  server.Shutdown();
  server.Wait();
  const Server::Stats stats = server.stats();
  EXPECT_GE(stats.commands_shed, 1u);
  EXPECT_EQ(stats.connections_timed_out, 0u);
}

// ------------------------------------------------------------- BGSAVE

TEST_F(ServerTest, BgSaveSnapshotBitIdenticalToQuiescedSave) {
  sccf::testing::TempDir dir;
  auto served = MakeEngine(dir.file("via_bgsave"));
  auto twin = MakeEngine(dir.file("via_save"));

  ServerOptions opts;
  opts.port = 0;
  Server server(*served, opts);
  ASSERT_TRUE(server.Start().ok());
  RespClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Identical ingest on both sides, then quiesce and save: the server
  // path through BGSAVE (helper thread + deferred reply) and the twin's
  // synchronous SAVE must leave byte-identical snapshot files — same
  // shard states, same embedded journal seq horizon.
  const Command ingest = {
      "INGEST", {"0", "5", "100", "1", "9", "100", "0", "7", "101"}};
  client.Send(EncodeMultibulk(ingest));
  EXPECT_EQ(client.ReadReply().rfind("*3\r\n", 0), 0u);
  EXPECT_EQ(Dispatch(*twin, ingest).rfind("*3\r\n", 0), 0u);

  client.Send("BGSAVE\r\n");
  EXPECT_EQ(client.ReadReply(), "+OK\r\n");
  EXPECT_EQ(Dispatch(*twin, {"SAVE", {}}), "+OK\r\n");

  // LASTSAVE flips from the -1 sentinel to a real timestamp.
  client.Send("LASTSAVE\r\n");
  const std::string lastsave = client.ReadReply();
  EXPECT_EQ(lastsave.rfind(":", 0), 0u);
  EXPECT_NE(lastsave, ":-1\r\n");

  server.Shutdown();
  server.Wait();

  auto bg_bytes =
      persist::ReadFileToString(dir.file("via_bgsave/snapshot"));
  auto sync_bytes =
      persist::ReadFileToString(dir.file("via_save/snapshot"));
  ASSERT_TRUE(bg_bytes.ok()) << bg_bytes.status().ToString();
  ASSERT_TRUE(sync_bytes.ok()) << sync_bytes.status().ToString();
  EXPECT_EQ(*bg_bytes, *sync_bytes)
      << "BGSAVE snapshot diverged from synchronous SAVE";
}

TEST_F(ServerTest, BgSaveUnderConcurrentIngestRecoversBitIdentical) {
  sccf::testing::TempDir dir;
  const std::string data_dir = dir.file("data");
  auto served = MakeEngine(data_dir);

  ServerOptions opts;
  opts.port = 0;
  Server server(*served, opts);
  ASSERT_TRUE(server.Start().ok());

  RespClient ingester(server.port());
  RespClient saver(server.port());
  ASSERT_TRUE(ingester.connected());
  ASSERT_TRUE(saver.connected());

  // Stream ingest batches while the BGSAVE runs somewhere in the
  // middle: the snapshot lands at whatever per-shard horizon the export
  // caught, and the journal (pre-rotation tail + post-rotation records)
  // must cover the rest exactly once.
  std::string batch;
  for (int step = 0; step < 40; ++step) {
    batch += "INGEST " + std::to_string(step % 30) + " " +
             std::to_string((step * 7 + 3) % 160) + " " +
             std::to_string(step) + "\r\n";
  }
  ingester.Send(batch);
  saver.Send("BGSAVE\r\n");
  for (int step = 0; step < 40; ++step) {
    EXPECT_EQ(ingester.ReadReply().rfind("*3\r\n", 0), 0u) << step;
  }
  EXPECT_EQ(saver.ReadReply(), "+OK\r\n");
  // And a post-save tail that only the rotated journal holds.
  ingester.Send("INGEST 2 33 100 4 55 101\r\n");
  EXPECT_EQ(ingester.ReadReply().rfind("*3\r\n", 0), 0u);

  server.Shutdown();
  server.Wait();

  // A fresh engine recovered from the directory answers bit-identically
  // to the engine that lived through it.
  auto recovered = MakeEngine(data_dir);
  for (const Command& probe : std::vector<Command>{
           {"HISTORY", {"2"}},
           {"HISTORY", {"4"}},
           {"HISTORY", {"17"}},
           {"NEIGHBORS", {"2"}},
           {"NEIGHBORS", {"29"}},
           {"RECOMMEND", {"2", "10"}},
           {"RECOMMEND", {"15", "10"}},
           // Not STATS: the live engine carries last_save_duration_ms
           // from its BGSAVE, the recovered one has never saved.
       }) {
    EXPECT_EQ(Dispatch(*recovered, probe), Dispatch(*served, probe))
        << probe.name;
  }
}

}  // namespace
}  // namespace sccf::server
