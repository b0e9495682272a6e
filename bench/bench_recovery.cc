// Cost model of the crash-safety layer (src/persist): what the ingest
// path pays for write-ahead journaling, what SAVE costs, and how fast a
// restart gets back to serving. Four phases, one corpus:
//
//   1. ingest    — the same single-stream batch ingest run three ways:
//                  persistence off (baseline), journaled (the default
//                  durability mode: one O_APPEND write per touched shard
//                  per batch), and journaled + fsync-per-record (the
//                  machine-crash mode). Reported as updates/sec so the
//                  journal's overhead is a ratio, not an absolute.
//   2. save      — Engine::Save() wall time and the snapshot size it
//                  writes (all shards, CRC-framed, atomic rename).
//   3. recover   — Bootstrap wall time for three restart shapes: plain
//                  (no persistence), snapshot + journal tail (the
//                  post-SAVE restart), and journal-only replay (never
//                  saved — the worst case the snapshot exists to avoid).
//   4. verify    — the recovered engine answers one Neighbors probe per
//                  shard, so the timings above cannot quietly measure a
//                  broken restore.
//
// Self-timed, no Google Benchmark dependency. Flags:
//   --interactions=N      stream length (default 10000)
//   --users=N --items=N   corpus size (default 2000 x 1500)
//   --dim=N               embedding dim (default 32)
//   --shards=N            0 = hardware concurrency (the service default)
//   --batch=N             events per IngestRequest (default 32)
//   --compaction=N        write-buffer flush threshold (default 32)
//   --json=PATH           machine-readable report (BENCH_recovery.json)
//   --quick               small workload for CI smoke
//
// Methodology: untrained FISM (inference cost identical to a converged
// model), one deterministic bursty stream shared by every phase, fresh
// mkdtemp directories per persistent engine so runs never read each
// other's state. The journal-only replay phase re-ingests through the
// normal batch path (replay IS ingest), so its time is bounded below by
// phase 1's journaled ingest time for the same prefix — the delta is
// pure decode + CRC.

#include <ftw.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "models/fism.h"
#include "online/engine.h"
#include "persist/fs.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using namespace sccf;

struct Config {
  size_t interactions = 10000;
  size_t users = 2000;
  size_t items = 1500;
  size_t dim = 32;
  size_t shards = 0;  // 0 = hardware concurrency
  size_t batch = 32;
  size_t compaction = 32;
  std::string json_path;
};

struct Results {
  double baseline_ups = 0.0;       // persistence off
  double journal_ups = 0.0;        // recover_dir set, fsync off
  double journal_fsync_ups = 0.0;  // recover_dir set, fsync on
  double save_ms = 0.0;
  size_t snapshot_bytes = 0;
  size_t journal_bytes = 0;  // full-stream journal, fsync-off engine
  double bootstrap_plain_ms = 0.0;
  double recover_snapshot_tail_ms = 0.0;  // snapshot + 25% journal tail
  double recover_replay_only_ms = 0.0;    // no snapshot, full journal
};

/// Scratch directory that cleans up after itself (mkdtemp + nftw).
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/sccf_bench_XXXXXX";
    SCCF_CHECK(::mkdtemp(tmpl) != nullptr) << "mkdtemp failed";
    path_ = tmpl;
  }
  ~ScratchDir() {
    ::nftw(
        path_.c_str(),
        [](const char* p, const struct stat*, int, struct FTW*) {
          return ::remove(p);
        },
        16, FTW_DEPTH | FTW_PHYS);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The bursty deterministic stream every phase shares: users in runs of
/// 4 consecutive events, drawn in Knuth-hash order.
std::vector<online::Engine::Event> MakeStream(const Config& cfg) {
  std::vector<online::Engine::Event> stream(cfg.interactions);
  for (size_t i = 0; i < cfg.interactions; ++i) {
    const size_t run = i / 4;
    stream[i] = {static_cast<int>((run * 2654435761u) % cfg.users),
                 static_cast<int>((i * 40503u) % cfg.items),
                 static_cast<int64_t>(i)};
  }
  return stream;
}

online::Engine::Options MakeOptions(const Config& cfg,
                                    const std::string& recover_dir,
                                    bool journal_fsync) {
  online::Engine::Options opts;
  opts.beta = 100;
  opts.num_shards = cfg.shards;
  opts.compaction_threshold = cfg.compaction;
  opts.index_kind = core::IndexKind::kBruteForce;
  opts.recover_dir = recover_dir;
  opts.journal_fsync = journal_fsync;
  return opts;
}

/// Ingests stream[lo, hi) in cfg.batch chunks; returns wall seconds.
double IngestRange(online::Engine& engine,
                   const std::vector<online::Engine::Event>& stream,
                   size_t lo, size_t hi, size_t batch) {
  online::Engine::IngestRequest req;
  req.identify = false;
  req.events.reserve(batch);
  Stopwatch wall;
  for (size_t i = lo; i < hi; i += batch) {
    const size_t end = std::min(hi, i + batch);
    req.events.assign(stream.begin() + i, stream.begin() + end);
    const auto resp = engine.Ingest(req);
    SCCF_CHECK(resp.ok()) << resp.status().ToString();
  }
  return wall.ElapsedSeconds();
}

size_t DirBytes(const std::string& dir, const char* prefix) {
  auto files = persist::ListDirFiles(dir);
  SCCF_CHECK(files.ok()) << files.status().ToString();
  size_t total = 0;
  for (const std::string& name : *files) {
    if (name.rfind(prefix, 0) != 0) continue;
    auto bytes = persist::ReadFileToString(dir + "/" + name);
    SCCF_CHECK(bytes.ok()) << bytes.status().ToString();
    total += bytes->size();
  }
  return total;
}

/// One Neighbors probe per shard-ish stripe of the user space: recovery
/// timings only count if the recovered engine actually serves.
void ProbeRecovered(online::Engine& engine, const Config& cfg) {
  for (size_t i = 0; i < 8; ++i) {
    const int user = static_cast<int>((i * 2654435761u) % cfg.users);
    const auto nbrs = engine.Neighbors({user, std::nullopt});
    SCCF_CHECK(nbrs.ok()) << nbrs.status().ToString();
    SCCF_CHECK(!nbrs->neighbors.empty()) << "recovered engine is empty";
  }
}

void WriteJson(const Config& cfg, const Results& r) {
  std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
  SCCF_CHECK(f != nullptr) << "cannot open " << cfg.json_path;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_recovery\",\n");
  std::fprintf(f, "  \"host\": { \"hardware_concurrency\": %u },\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"config\": { \"interactions\": %zu, \"users\": %zu, "
               "\"items\": %zu, \"dim\": %zu, \"shards\": %zu, "
               "\"batch\": %zu, \"compaction_threshold\": %zu, "
               "\"index\": \"brute_force\" },\n",
               cfg.interactions, cfg.users, cfg.items, cfg.dim, cfg.shards,
               cfg.batch, cfg.compaction);
  std::fprintf(f,
               "  \"ingest\": { \"baseline_updates_per_sec\": %.1f, "
               "\"journal_updates_per_sec\": %.1f, "
               "\"journal_fsync_updates_per_sec\": %.1f, "
               "\"journal_overhead_pct\": %.2f },\n",
               r.baseline_ups, r.journal_ups, r.journal_fsync_ups,
               r.baseline_ups > 0.0
                   ? 100.0 * (1.0 - r.journal_ups / r.baseline_ups)
                   : 0.0);
  std::fprintf(f,
               "  \"save\": { \"save_ms\": %.2f, \"snapshot_bytes\": %zu, "
               "\"journal_bytes_full_stream\": %zu },\n",
               r.save_ms, r.snapshot_bytes, r.journal_bytes);
  std::fprintf(f,
               "  \"recover\": { \"bootstrap_plain_ms\": %.2f, "
               "\"snapshot_plus_tail_ms\": %.2f, "
               "\"journal_replay_only_ms\": %.2f }\n",
               r.bootstrap_plain_ms, r.recover_snapshot_tail_ms,
               r.recover_replay_only_ms);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", cfg.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    int64_t v = 0;
    if (arg.rfind("--interactions=", 0) == 0) {
      SCCF_CHECK(ParseInt64(val("--interactions="), &v) && v > 0);
      cfg.interactions = static_cast<size_t>(v);
    } else if (arg.rfind("--users=", 0) == 0) {
      SCCF_CHECK(ParseInt64(val("--users="), &v) && v > 0);
      cfg.users = static_cast<size_t>(v);
    } else if (arg.rfind("--items=", 0) == 0) {
      SCCF_CHECK(ParseInt64(val("--items="), &v) && v > 0);
      cfg.items = static_cast<size_t>(v);
    } else if (arg.rfind("--dim=", 0) == 0) {
      SCCF_CHECK(ParseInt64(val("--dim="), &v) && v > 0);
      cfg.dim = static_cast<size_t>(v);
    } else if (arg.rfind("--shards=", 0) == 0) {
      SCCF_CHECK(ParseInt64(val("--shards="), &v) && v >= 0);
      cfg.shards = static_cast<size_t>(v);
    } else if (arg.rfind("--batch=", 0) == 0) {
      SCCF_CHECK(ParseInt64(val("--batch="), &v) && v >= 1);
      cfg.batch = static_cast<size_t>(v);
    } else if (arg.rfind("--compaction=", 0) == 0) {
      SCCF_CHECK(ParseInt64(val("--compaction="), &v) && v >= 0);
      cfg.compaction = static_cast<size_t>(v);
    } else if (arg.rfind("--json=", 0) == 0) {
      cfg.json_path = val("--json=");
    } else if (arg == "--quick") {
      cfg.interactions = 2000;
      cfg.users = 600;
      cfg.items = 800;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  bench::PrintHeader(
      "Crash-safety cost model — journal, SAVE, recovery",
      "journaled vs plain ingest, Save() latency/size, restart-to-serving "
      "time for snapshot+tail vs full journal replay");
  std::printf("corpus %zu users x %zu items, dim %zu, %zu interactions, "
              "batch %zu\n\n",
              cfg.users, cfg.items, cfg.dim, cfg.interactions, cfg.batch);

  data::SyntheticConfig dcfg;
  dcfg.name = "bench-recovery";
  dcfg.num_users = cfg.users;
  dcfg.num_items = cfg.items;
  dcfg.num_clusters = 16;
  dcfg.seed = 17;
  const data::Dataset dataset = bench::BuildDataset(dcfg);
  const data::LeaveOneOutSplit split(dataset);
  models::Fism::Options fopts = bench::FismOptions(cfg.dim);
  fopts.epochs = 0;  // untrained: same inference cost, instant Fit
  models::Fism model(fopts);
  SCCF_CHECK(model.Fit(split).ok());
  const std::vector<online::Engine::Event> stream = MakeStream(cfg);

  Results r;

  // ---- Phase 1: ingest three ways -----------------------------------
  {
    online::Engine engine(model, MakeOptions(cfg, "", false));
    SCCF_CHECK(engine.BootstrapFromSplit(split).ok());
    const double s = IngestRange(engine, stream, 0, stream.size(), cfg.batch);
    r.baseline_ups = static_cast<double>(stream.size()) / s;
  }
  ScratchDir journal_dir;  // outlives its engine: phase 3 replays it
  {
    online::Engine engine(model,
                          MakeOptions(cfg, journal_dir.path(), false));
    SCCF_CHECK(engine.BootstrapFromSplit(split).ok());
    const double s = IngestRange(engine, stream, 0, stream.size(), cfg.batch);
    r.journal_ups = static_cast<double>(stream.size()) / s;
    r.journal_bytes = DirBytes(journal_dir.path(), "journal-");
  }
  {
    ScratchDir dir;
    online::Engine engine(model, MakeOptions(cfg, dir.path(), true));
    SCCF_CHECK(engine.BootstrapFromSplit(split).ok());
    const double s = IngestRange(engine, stream, 0, stream.size(), cfg.batch);
    r.journal_fsync_ups = static_cast<double>(stream.size()) / s;
  }
  std::printf("ingest updates/sec: baseline %.0f | journal %.0f (%.1f%% "
              "overhead) | journal+fsync %.0f\n",
              r.baseline_ups, r.journal_ups,
              100.0 * (1.0 - r.journal_ups / r.baseline_ups),
              r.journal_fsync_ups);

  // ---- Phase 2 + 3: save, then the three restart shapes -------------
  ScratchDir save_dir;
  {
    online::Engine engine(model, MakeOptions(cfg, save_dir.path(), false));
    SCCF_CHECK(engine.BootstrapFromSplit(split).ok());
    const size_t tail_from = stream.size() - stream.size() / 4;
    IngestRange(engine, stream, 0, tail_from, cfg.batch);
    Stopwatch save_clock;
    SCCF_CHECK(engine.Save().ok());
    r.save_ms = save_clock.ElapsedMillis();
    IngestRange(engine, stream, tail_from, stream.size(), cfg.batch);
    auto snap = persist::ReadFileToString(save_dir.path() + "/snapshot");
    SCCF_CHECK(snap.ok());
    r.snapshot_bytes = snap->size();
  }
  {
    online::Engine engine(model, MakeOptions(cfg, "", false));
    Stopwatch clock;
    SCCF_CHECK(engine.BootstrapFromSplit(split).ok());
    r.bootstrap_plain_ms = clock.ElapsedMillis();
  }
  {
    online::Engine engine(model, MakeOptions(cfg, save_dir.path(), false));
    Stopwatch clock;
    SCCF_CHECK(engine.BootstrapFromSplit(split).ok());
    r.recover_snapshot_tail_ms = clock.ElapsedMillis();
    ProbeRecovered(engine, cfg);
  }
  {
    online::Engine engine(model,
                          MakeOptions(cfg, journal_dir.path(), false));
    Stopwatch clock;
    SCCF_CHECK(engine.BootstrapFromSplit(split).ok());
    r.recover_replay_only_ms = clock.ElapsedMillis();
    ProbeRecovered(engine, cfg);
  }
  std::printf("save: %.1f ms, snapshot %zu bytes, full-stream journal %zu "
              "bytes\n",
              r.save_ms, r.snapshot_bytes, r.journal_bytes);
  std::printf("restart-to-serving: plain %.1f ms | snapshot+25%%-tail "
              "%.1f ms | full journal replay %.1f ms\n",
              r.bootstrap_plain_ms, r.recover_snapshot_tail_ms,
              r.recover_replay_only_ms);

  if (!cfg.json_path.empty()) WriteJson(cfg, r);
  return 0;
}
