// sccf_server: the SCCF serving daemon. Bootstraps an Engine over a
// synthetic corpus (deterministic for a fixed seed), optionally recovers
// ingested state from --data_dir (snapshot + journal replay, journaling
// every ingest from then on), and serves the wire protocol
// (src/server/protocol.h) until SIGTERM/SIGINT, which triggers the
// graceful drain and a clean exit 0.
//
// Flags:
//   --host=ADDR            bind address       (default 127.0.0.1)
//   --port=N               TCP port, 0 = kernel-assigned (default 7700)
//   --max_connections=N    concurrent-connection cap (default 1024)
//   --read_buffer=BYTES    per-connection request-frame cap (default 1 MiB)
//   --drain_timeout=MS     graceful-drain bound (default 5000)
//   --idle_timeout=MS      reap connections idle this long with -TIMEOUT
//                          (default 0 = off)
//   --write_stall_timeout=MS  force-close connections whose reply backlog
//                          makes no progress this long (default 0 = off)
//   --max_inflight=BYTES   global unflushed-reply budget; over it, new
//                          commands get -OVERLOADED (default 0 = off)
//   --users=N --items=N    synthetic corpus size (pre-filter; the actual
//                          post-filter sizes are printed at startup)
//   --dim=N                embedding dim (default 32)
//   --shards=N             0 = hardware concurrency (default)
//   --compaction=N         write-buffer flush threshold (default 32)
//   --compaction_interval=MS  wall-clock compaction bound (default 0)
//   --storage=MODE         index embedding storage: fp32 (default) or
//                          sq8 (int8 codes + per-row scale/offset, ~4x
//                          smaller rows; see docs/OPERATIONS.md)
//   --background           enable the background compaction thread
//   --seed=N               corpus seed (default 7)
//   --data_dir=DIR         persistence directory: recover on start
//                          (snapshot + journal replay), journal every
//                          ingest, honor SAVE/LASTSAVE (default: off,
//                          fully in-memory)
//   --journal_fsync        fsync the journal after every appended record
//                          (machine-crash durability; see
//                          docs/OPERATIONS.md for the tradeoff)
//
// Startup prints two machine-parsable lines (tests/server_binary_test.cc
// and perfbench/run.py consume them):
//   corpus users=<post-filter users> items=<post-filter items>
//   listening on <host>:<port>
//
// Exit codes: 0 after a SIGTERM/SIGINT drain, 2 for an unknown flag or a
// bad flag value, 1 when the corpus bootstrap, --data_dir recovery or
// the listener fails. Every nonzero exit prints its reason on stderr.

#include <csignal>

#include <atomic>
#include <cstdio>
#include <limits>
#include <string>

#include "data/split.h"
#include "data/synthetic.h"
#include "models/fism.h"
#include "online/engine.h"
#include "server/server.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

using namespace sccf;

// The handlers are installed *before* the (multi-second, corpus-sized)
// bootstrap so a Ctrl-C during startup is never the default
// terminate-without-drain action: until the server exists the handler
// just records the signal, and main checks the flag right after
// Start() — a signal in the window drains immediately instead of being
// lost. Both are atomics because the handler can run on any thread at
// any instant.
std::atomic<server::Server*> g_server{nullptr};
std::atomic<bool> g_signal_pending{false};

// Shutdown() is async-signal-safe by contract (one write(2) to an
// eventfd), so this handler is too.
void HandleSignal(int /*signum*/) {
  g_signal_pending.store(true, std::memory_order_release);
  server::Server* srv = g_server.load(std::memory_order_acquire);
  if (srv != nullptr) srv->Shutdown();
}

struct Config {
  server::ServerOptions server;
  size_t users = 2000;
  size_t items = 1500;
  size_t dim = 32;
  size_t shards = 0;
  size_t compaction = 32;
  int64_t compaction_interval_ms = 0;
  quant::Storage storage = quant::Storage::kFp32;
  bool background = false;
  uint64_t seed = 7;
  std::string data_dir;
  bool journal_fsync = false;
};

// Parses argv into `cfg`. An unknown flag or a bad value prints the
// reason on stderr and returns false.
bool ParseFlags(int argc, char** argv, Config* cfg) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const bool has_value = eq != std::string::npos;
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    int64_t v = 0;
    // An integer value in [lo, hi], left in `v`.
    const auto in_range = [&](int64_t lo, int64_t hi) {
      return has_value && ParseInt64(value, &v) && v >= lo && v <= hi;
    };
    bool ok = true;
    if (name == "--host") {
      ok = has_value;
      cfg->server.bind_address = value;
    } else if (name == "--port") {
      ok = in_range(0, 65535);
      cfg->server.port = static_cast<uint16_t>(v);
    } else if (name == "--max_connections") {
      ok = in_range(1, std::numeric_limits<int>::max());
      cfg->server.max_connections = static_cast<int>(v);
    } else if (name == "--read_buffer") {
      ok = in_range(64, kMax);
      cfg->server.read_buffer_limit = static_cast<size_t>(v);
    } else if (name == "--drain_timeout") {
      ok = in_range(std::numeric_limits<int64_t>::min(), kMax);
      cfg->server.drain_timeout_ms = v;
    } else if (name == "--idle_timeout") {
      ok = in_range(0, kMax);
      cfg->server.idle_timeout_ms = v;
    } else if (name == "--write_stall_timeout") {
      ok = in_range(0, kMax);
      cfg->server.write_stall_timeout_ms = v;
    } else if (name == "--max_inflight") {
      ok = in_range(0, kMax);
      cfg->server.max_inflight_bytes = static_cast<size_t>(v);
    } else if (name == "--users") {
      ok = in_range(1, kMax);
      cfg->users = static_cast<size_t>(v);
    } else if (name == "--items") {
      ok = in_range(1, kMax);
      cfg->items = static_cast<size_t>(v);
    } else if (name == "--dim") {
      ok = in_range(1, kMax);
      cfg->dim = static_cast<size_t>(v);
    } else if (name == "--shards") {
      ok = in_range(0, kMax);
      cfg->shards = static_cast<size_t>(v);
    } else if (name == "--compaction") {
      ok = in_range(0, kMax);
      cfg->compaction = static_cast<size_t>(v);
    } else if (name == "--compaction_interval") {
      ok = in_range(0, kMax);
      cfg->compaction_interval_ms = v;
    } else if (name == "--storage") {
      ok = quant::ParseStorage(value, &cfg->storage);
    } else if (arg == "--background") {
      cfg->background = true;
    } else if (name == "--data_dir") {
      ok = !value.empty();
      cfg->data_dir = value;
    } else if (arg == "--journal_fsync") {
      cfg->journal_fsync = true;
    } else if (name == "--seed") {
      ok = in_range(0, kMax);
      cfg->seed = static_cast<uint64_t>(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", name.c_str(),
                   value.c_str());
      return false;
    }
  }
  return true;
}

// Startup failures after flag parsing: the reason on stderr, exit 1.
int StartupFailure(const char* what, const Status& status) {
  std::fprintf(stderr, "failed to %s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!ParseFlags(argc, argv, &cfg)) return 2;

  // Install the handlers before the expensive bootstrap: SIGINT and
  // SIGTERM both mean "drain gracefully" from the very first instant,
  // including the startup window where there is no server yet.
  struct sigaction sa {};
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // writes to dead peers report EPIPE instead

  data::SyntheticConfig syn;
  syn.name = "server-corpus";
  syn.num_users = cfg.users;
  syn.num_items = cfg.items;
  syn.num_clusters = 20;
  syn.min_actions = 10;
  syn.max_actions = 30;
  syn.seed = cfg.seed;
  data::SyntheticGenerator gen(syn);
  auto dataset = gen.Generate();
  if (!dataset.ok()) return StartupFailure("generate", dataset.status());
  data::LeaveOneOutSplit split(*dataset);

  // Untrained FISM: real inference path, deterministic weights. A
  // trained checkpoint slots in here once persistence lands.
  models::Fism::Options fopts;
  fopts.dim = cfg.dim;
  fopts.epochs = 0;
  models::Fism fism(fopts);
  const Status fit = fism.Fit(split);
  if (!fit.ok()) return StartupFailure("fit", fit);

  online::Engine::Options eopts;
  eopts.num_shards = cfg.shards;
  eopts.compaction_threshold = cfg.compaction;
  eopts.compaction_interval_ms = cfg.compaction_interval_ms;
  eopts.background_compaction = cfg.background;
  eopts.storage = cfg.storage;
  eopts.recover_dir = cfg.data_dir;
  eopts.journal_fsync = cfg.journal_fsync;
  online::Engine engine(fism, eopts);
  // The corpus bootstrap is deterministic for a fixed seed, so recovery
  // only has to restore what ingest changed since: Bootstrap rebuilds
  // the corpus state, then (with --data_dir) loads the snapshot and
  // replays the journal tail on top.
  const Status booted = engine.BootstrapFromSplit(split);
  if (!booted.ok()) return StartupFailure("bootstrap", booted);

  server::Server srv(engine, cfg.server);
  const Status started = srv.Start();
  if (!started.ok()) return StartupFailure("start", started);
  g_server.store(&srv, std::memory_order_release);
  // A signal that landed between handler installation and here saw a
  // null g_server and could only set the flag — honor it now.
  if (g_signal_pending.load(std::memory_order_acquire)) srv.Shutdown();

  // Generation may compact ids; clients need the live corpus bounds.
  std::printf("corpus users=%zu items=%zu\n", split.num_users(),
              dataset->num_items());
  std::printf("listening on %s:%u\n", cfg.server.bind_address.c_str(),
              static_cast<unsigned>(srv.port()));
  std::fflush(stdout);

  srv.Wait();
  const server::Server::Stats stats = srv.stats();
  std::printf(
      "drained: accepted=%llu refused=%llu commands=%llu "
      "protocol_errors=%llu shed=%llu timed_out=%llu\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.connections_refused),
      static_cast<unsigned long long>(stats.commands_executed),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(stats.commands_shed),
      static_cast<unsigned long long>(stats.connections_timed_out));
  return 0;
}
