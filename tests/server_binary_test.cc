// The sccf_server binary end to end. Each case fork+execs the daemon
// built from src/server/sccf_server_main.cc (tests/CMakeLists.txt passes
// its path in as SCCF_SERVER_BINARY), reads the startup lines from its
// stdout pipe, and talks to it over loopback like any client. These are
// the checks only the real process can make:
//
//  * a pipelined 20%-INGEST mix on 8 connections is answered without a
//    single error, and SIGTERM drains to exit 0;
//  * --storage=sq8 holds int8 codes and no fp32 rows (STATS), with one
//    SHARDSTATS array per shard;
//  * SIGKILL + restart on the same --data_dir answers a read block with
//    the same bytes as before the kill;
//  * past --max_connections the daemon refuses with -OVERLOADED while
//    the admitted connections keep being served, a BGSAVE fired mid-
//    flood completes, and a restart recovers the state it saved;
//  * a bad flag value exits 2 and a failed recovery exits 1, each with
//    its reason on stderr.

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/fs.h"
#include "testing/resp_client.h"
#include "testing/subprocess.h"
#include "testing/temp_dir.h"
#include "util/logging.h"

namespace sccf {
namespace {

using testing::RespClient;

// Generous enough for a Debug+ASan daemon to bootstrap the corpus below.
constexpr int kTimeoutMs = 120000;

/// One sccf_server child process. stdout arrives over a pipe; stderr
/// goes to a file, so a chatty daemon can never block on a full pipe.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& flags, std::string stderr_path)
      : stderr_path_(std::move(stderr_path)) {
    std::vector<std::string> args = {SCCF_SERVER_BINARY};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int out[2];
    SCCF_CHECK(::pipe2(out, O_CLOEXEC) == 0);
    const int err = ::open(stderr_path_.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    SCCF_CHECK(err >= 0);
    ::fflush(stdout);
    ::fflush(stderr);
    pid_ = ::fork();
    SCCF_CHECK(pid_ >= 0) << "fork failed";
    if (pid_ == 0) {  // only async-signal-safe calls until exec
      ::dup2(out[1], STDOUT_FILENO);
      ::dup2(err, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    ::close(err);
    out_fd_ = out[0];
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::close(out_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reads stdout up to the `listening on` line and parses the startup
  /// lines. False if the daemon exits or stays silent first.
  bool AwaitListening() {
    size_t line = std::string::npos;
    while ((line = out_.find("listening on ")) == std::string::npos ||
           out_.find('\n', line) == std::string::npos) {
      if (!ReadSome()) return false;
    }
    const size_t corpus = out_.find("corpus users=");
    return corpus != std::string::npos &&
           std::sscanf(out_.c_str() + corpus, "corpus users=%zu items=%zu",
                       &users_, &items_) == 2 &&
           std::sscanf(out_.c_str() + out_.find(':', line) + 1, "%hu",
                       &port_) == 1;
  }

  void Signal(int sig) { ::kill(pid_, sig); }

  /// Reads stdout to EOF, then reaps the process and returns its raw
  /// waitpid status. A daemon whose stdout stays open past the timeout
  /// is SIGKILLed, so a hung drain fails instead of hanging the suite.
  int Wait() {
    while (ReadSome()) {
    }
    if (!eof_) ::kill(pid_, SIGKILL);
    int status = 0;
    SCCF_CHECK_EQ(::waitpid(pid_, &status, 0), pid_);
    pid_ = -1;
    return status;
  }

  uint16_t port() const { return port_; }
  size_t users() const { return users_; }
  size_t items() const { return items_; }
  const std::string& out() const { return out_; }
  std::string err() const {
    auto bytes = persist::ReadFileToString(stderr_path_);
    return bytes.ok() ? *bytes : "";
  }

 private:
  bool ReadSome() {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, kTimeoutMs) <= 0) return false;
    char buf[4096];
    const ssize_t r = ::read(out_fd_, buf, sizeof(buf));
    eof_ = r == 0;
    if (r <= 0) return false;
    out_.append(buf, static_cast<size_t>(r));
    return true;
  }

  std::string stderr_path_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool eof_ = false;
  std::string out_;
  uint16_t port_ = 0;
  size_t users_ = 0;
  size_t items_ = 0;
};

bool ExitedWith(int status, int code) {
  return WIFEXITED(status) && WEXITSTATUS(status) == code;
}

/// Sends `commands` pipelined in one write on a fresh connection and
/// returns one raw reply per command.
std::vector<std::string> Exchange(uint16_t port,
                                  const std::vector<std::string>& commands) {
  RespClient client(port);
  EXPECT_TRUE(client.connected());
  std::string pipeline;
  for (const std::string& cmd : commands) pipeline += cmd + "\r\n";
  client.Send(pipeline);
  std::vector<std::string> replies;
  for (size_t i = 0; i < commands.size(); ++i) {
    replies.push_back(client.ReadReply());
  }
  return replies;
}

/// `n` inline frames: 20% single-event INGEST, the rest 50% RECOMMEND,
/// 40% NEIGHBORS, 10% HISTORY, over ids inside the live corpus.
std::string MixedPipeline(std::mt19937* rng, const Daemon& daemon, int n,
                          int64_t* ts) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<size_t> user(0, daemon.users() - 1);
  std::uniform_int_distribution<size_t> item(0, daemon.items() - 1);
  std::string out;
  for (int i = 0; i < n; ++i) {
    const std::string u = std::to_string(user(*rng));
    if (coin(*rng) < 0.2) {
      out += "INGEST " + u + " " + std::to_string(item(*rng)) + " " +
             std::to_string((*ts)++) + "\r\n";
      continue;
    }
    const double kind = coin(*rng);
    out += kind < 0.5   ? "RECOMMEND " + u + " 10\r\n"
           : kind < 0.9 ? "NEIGHBORS " + u + "\r\n"
                        : "HISTORY " + u + "\r\n";
  }
  return out;
}

/// Reads `n` replies; each must be well formed and none an error.
void ExpectCleanReplies(RespClient* client, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string reply = client->ReadReply();
    ASSERT_FALSE(reply.empty()) << "reply " << i << " missing";
    ASSERT_NE(reply[0], '-') << reply;
  }
}

/// The integer following `key` in a STATS reply; -1 when absent.
int64_t StatField(const std::string& reply, const std::string& key) {
  const size_t at = reply.find("\r\n" + key + "\r\n:");
  if (at == std::string::npos) return -1;
  return std::stoll(reply.substr(at + key.size() + 5));
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

class ServerBinaryTest : public ::testing::Test {
 protected:
  // Refused connections are reset by the daemon; a later write to one
  // must fail with EPIPE rather than kill the test.
  static void SetUpTestSuite() { ::signal(SIGPIPE, SIG_IGN); }

  /// Spawns the daemon without waiting for it.
  std::unique_ptr<Daemon> Spawn(const std::vector<std::string>& flags) {
    return std::make_unique<Daemon>(
        flags, dir_.file("stderr-" + std::to_string(spawned_++)));
  }

  /// Spawns the daemon on an ephemeral port over the test corpus plus
  /// `flags`; null (with a test failure) if it never listens.
  std::unique_ptr<Daemon> Launch(std::vector<std::string> flags) {
    flags.insert(flags.begin(), {"--port=0", "--users=800", "--items=600",
                                 "--shards=4"});
    std::unique_ptr<Daemon> daemon = Spawn(flags);
    if (!daemon->AwaitListening()) {
      ADD_FAILURE() << "sccf_server never listened; stdout:\n"
                    << daemon->out() << "stderr:\n"
                    << daemon->err();
      return nullptr;
    }
    return daemon;
  }

  std::string data_dir() const { return dir_.file("data"); }

  testing::TempDir dir_;
  int spawned_ = 0;
};

TEST_F(ServerBinaryTest, FrontEndMixedLoadDrainsCleanly) {
  auto daemon = Launch({});
  ASSERT_TRUE(daemon);
  constexpr int kConnections = 8;
  constexpr int kRounds = 4;
  constexpr int kPipeline = 64;
  std::vector<std::unique_ptr<RespClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<RespClient>(daemon->port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  // Every connection's pipeline is in flight before any reply is read,
  // so the reactor interleaves all eight.
  std::mt19937 rng(17);
  int64_t ts = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (auto& client : clients) {
      client->Send(MixedPipeline(&rng, *daemon, kPipeline, &ts));
    }
    for (auto& client : clients) {
      ASSERT_NO_FATAL_FAILURE(ExpectCleanReplies(client.get(), kPipeline));
    }
  }
  daemon->Signal(SIGTERM);
  const int status = daemon->Wait();
  EXPECT_TRUE(testing::ExitedCleanly(status))
      << "status " << status << "\n" << daemon->err();
  EXPECT_NE(daemon->out().find(" protocol_errors=0 "), std::string::npos)
      << daemon->out();
}

TEST_F(ServerBinaryTest, Sq8StorageHoldsCodesNotFloats) {
  auto daemon = Launch({"--storage=sq8"});
  ASSERT_TRUE(daemon);
  const std::vector<std::string> replies = Exchange(
      daemon->port(), {"INGEST 1 10 1 1 11 2 2 12 3", "STATS", "SHARDSTATS"});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].rfind("*3\r\n", 0), 0u) << replies[0];
  EXPECT_GT(StatField(replies[1], "code_bytes"), 0) << replies[1];
  EXPECT_EQ(StatField(replies[1], "embedding_bytes"), 0) << replies[1];
  EXPECT_EQ(StatField(replies[1], "num_shards"), 4) << replies[1];
  EXPECT_EQ(replies[2].rfind("*4\r\n", 0), 0u) << replies[2];
  EXPECT_EQ(CountOf(replies[2], "*14\r\n"), 4u) << replies[2];
  daemon->Signal(SIGTERM);
  const int status = daemon->Wait();
  EXPECT_TRUE(testing::ExitedCleanly(status))
      << "status " << status << "\n" << daemon->err();
}

TEST_F(ServerBinaryTest, KillAndRestartRepliesByteIdentical) {
  const std::vector<std::string> read_block = {
      "RECOMMEND 1 10", "NEIGHBORS 1", "HISTORY 1", "HISTORY 9000"};
  auto daemon = Launch({"--data_dir=" + data_dir()});
  ASSERT_TRUE(daemon);
  for (const std::string& reply :
       Exchange(daemon->port(), {"INGEST 1 10 1 1 11 2 2 12 3 5 13 4",
                                 "INGEST 9000 14 5 9000 15 6 1 16 7"})) {
    EXPECT_EQ(reply.rfind("*3\r\n", 0), 0u) << reply;
  }
  const std::vector<std::string> before =
      Exchange(daemon->port(), read_block);
  ASSERT_EQ(before.size(), read_block.size());
  // The ingest is visible: a cold-start user and a grown history.
  EXPECT_NE(before[3].find(":15\r\n"), std::string::npos) << before[3];
  EXPECT_NE(before[2].find(":16\r\n"), std::string::npos) << before[2];

  // No drain, no destructors: only the journal can carry the ingest.
  daemon->Signal(SIGKILL);
  EXPECT_TRUE(testing::KilledBySignal(daemon->Wait(), SIGKILL));

  daemon = Launch({"--data_dir=" + data_dir()});
  ASSERT_TRUE(daemon);
  EXPECT_EQ(Exchange(daemon->port(), read_block), before);
  daemon->Signal(SIGTERM);
  const int status = daemon->Wait();
  EXPECT_TRUE(testing::ExitedCleanly(status))
      << "status " << status << "\n" << daemon->err();
}

TEST_F(ServerBinaryTest, OverloadRefusesPastCapAndBgsaveRecovers) {
  constexpr int kCap = 48;
  constexpr int kFlood = 96;
  constexpr int kRounds = 4;
  constexpr int kPipeline = 16;
  const std::vector<std::string> flags = {
      "--max_connections=" + std::to_string(kCap),
      "--data_dir=" + data_dir()};
  auto daemon = Launch(flags);
  ASSERT_TRUE(daemon);

  // The control connection holds a slot like an operator session.
  RespClient control(daemon->port());
  control.Send("PING\r\n");
  ASSERT_EQ(control.ReadReply(), "+PONG\r\n");
  // Connections open one at a time, so exactly the first kCap - 1 fit.
  std::vector<std::unique_ptr<RespClient>> admitted;
  int refused = 0;
  for (int c = 0; c < kFlood; ++c) {
    auto client = std::make_unique<RespClient>(daemon->port());
    ASSERT_TRUE(client->connected());
    client->Send("PING\r\n");
    const std::string reply = client->ReadReply();
    if (reply == "+PONG\r\n") {
      admitted.push_back(std::move(client));
    } else {
      EXPECT_EQ(reply, "-OVERLOADED max connections reached\r\n");
      ++refused;
    }
  }
  EXPECT_EQ(admitted.size(), static_cast<size_t>(kCap - 1));
  EXPECT_EQ(refused, kFlood - kCap + 1);

  // The admitted fleet keeps making progress; a BGSAVE lands while
  // every connection has a pipeline in flight.
  std::mt19937 rng(29);
  int64_t ts = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (auto& client : admitted) {
      client->Send(MixedPipeline(&rng, *daemon, kPipeline, &ts));
    }
    if (round == kRounds / 2) control.Send("BGSAVE\r\n");
    for (auto& client : admitted) {
      ASSERT_NO_FATAL_FAILURE(ExpectCleanReplies(client.get(), kPipeline));
    }
    if (round == kRounds / 2) {
      EXPECT_EQ(control.ReadReply(), "+OK\r\n");
    }
  }
  // The cap is full, so the probe rides the control connection. Its
  // INGEST lands after the snapshot: only the journal carries it.
  const std::vector<std::string> probe = {"INGEST 1 7 1000000",
                                          "RECOMMEND 1 10", "HISTORY 1"};
  std::vector<std::string> before;
  for (const std::string& cmd : probe) {
    control.Send(cmd + "\r\n");
    before.push_back(control.ReadReply());
  }
  EXPECT_NE(before[1].find("\r\n:"), std::string::npos) << before[1];
  EXPECT_NE(before[2].find(":7\r\n"), std::string::npos) << before[2];

  daemon->Signal(SIGTERM);
  int status = daemon->Wait();
  EXPECT_TRUE(testing::ExitedCleanly(status))
      << "status " << status << "\n" << daemon->err();
  EXPECT_NE(daemon->out().find(" refused=" + std::to_string(refused) + " "),
            std::string::npos)
      << daemon->out();

  // The mid-flood snapshot plus the journal after it recover exactly
  // the state the flood left.
  daemon = Launch(flags);
  ASSERT_TRUE(daemon);
  const std::vector<std::string> after =
      Exchange(daemon->port(), {probe[1], probe[2]});
  EXPECT_EQ(after, std::vector<std::string>(before.begin() + 1, before.end()));
  daemon->Signal(SIGTERM);
  status = daemon->Wait();
  EXPECT_TRUE(testing::ExitedCleanly(status))
      << "status " << status << "\n" << daemon->err();
}

TEST_F(ServerBinaryTest, BadFlagValueExitsTwo) {
  for (const std::string flag :
       {"--port=abc", "--port=70000", "--storage=fp16", "--max_connections=0",
        "--users=", "--data_dir="}) {
    auto daemon = Spawn({flag});
    const int status = daemon->Wait();
    EXPECT_TRUE(ExitedWith(status, 2)) << flag << ": status " << status;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(daemon->err().find("bad value for " + name), std::string::npos)
        << flag << ": " << daemon->err();
  }
}

TEST_F(ServerBinaryTest, CorruptJournalFailsRecoveryWithExitOne) {
  auto daemon = Launch({"--data_dir=" + data_dir()});
  ASSERT_TRUE(daemon);
  for (const std::string& reply :
       Exchange(daemon->port(), {"INGEST 1 10 1", "INGEST 2 11 2",
                                 "INGEST 3 12 3"})) {
    EXPECT_EQ(reply.rfind("*3\r\n", 0), 0u) << reply;
  }
  daemon->Signal(SIGKILL);
  daemon->Wait();

  // Flip a payload byte of the first record: intact records follow, so
  // this is mid-file corruption, not a torn tail recovery may drop.
  const std::string journal = data_dir() + "/journal-000001";
  auto bytes = persist::ReadFileToString(journal);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_GE(bytes->size(), 80u);
  (*bytes)[20] ^= 0x40;
  ASSERT_TRUE(persist::WriteFileAtomic(journal, *bytes, false).ok());

  daemon = Spawn({"--port=0", "--users=800", "--items=600", "--shards=4",
                  "--data_dir=" + data_dir()});
  const int status = daemon->Wait();
  EXPECT_TRUE(ExitedWith(status, 1)) << "status " << status;
  EXPECT_NE(daemon->err().find("failed to bootstrap"), std::string::npos)
      << daemon->err();
  EXPECT_NE(daemon->err().find("journal corruption"), std::string::npos)
      << daemon->err();
  EXPECT_EQ(daemon->out().find("listening on"), std::string::npos);
}

}  // namespace
}  // namespace sccf
