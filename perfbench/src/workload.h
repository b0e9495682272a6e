#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's three traffic mixes: the daemon configuration each one
// runs against, and the deterministic request stream it sends. The wire
// load generator (load.cc), the correctness probe and the traced in-process replay
// (trace.cc) all draw requests from RequestSource, so the replay sees
// exactly the requests the wire run sent.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "models/fism.h"
#include "online/engine.h"
#include "quant/sq8.h"
#include "util/random.h"

namespace perfbench {

using sccf::online::Engine;

enum class Kind { kRecommend, kNeighbors, kHistory, kIngest, kPing, kStats };
inline constexpr int kNumKinds = 6;
const char* KindName(Kind k);

/// List length of every RECOMMEND the benchmark sends.
inline constexpr int64_t kTopN = 10;

/// The daemon side of a workload: exactly the sccf_server flags it runs
/// with (corpus size and seed included), so an in-process engine built from
/// the same struct is the daemon's twin.
struct DaemonConfig {
  size_t users = 10000;
  size_t items = 3000;
  size_t dim = 32;
  size_t shards = 4;
  size_t compaction = 32;
  int64_t compaction_interval_ms = 0;
  sccf::quant::Storage storage = sccf::quant::Storage::kFp32;
  bool background = false;
  /// Journal every ingest to a fresh --data_dir (no fsync).
  bool journal = false;
  uint64_t corpus_seed = 7;
};

/// Request mix of a workload's main stream.
enum class Mix {
  /// 10% single-event INGEST; queries 50% RECOMMEND, 40% NEIGHBORS, 10%
  /// HISTORY.
  kReadMostly,
  /// INGEST frames of `frame_events` triples, in timestamp order.
  kIngestFrames,
  /// 50% single-event INGEST, 50% RECOMMEND of a recently ingested user.
  kIngestRecommend,
};

struct WorkloadSpec {
  std::string name;
  DaemonConfig daemon;
  Mix mix = Mix::kReadMostly;
  /// src/scenario generator feeding the users and items, and its
  /// events_per_user.
  std::string generator;
  size_t events_per_user = 8;
  /// Open-loop connections (Poisson arrivals at `rate_rps` spread over
  /// them) and closed-loop connections (one request outstanding each).
  int open_connections = 0;
  double rate_rps = 0.0;
  int closed_connections = 0;
  /// Triples per INGEST frame.
  size_t frame_events = 1;
  /// Closed-loop saturation phase on the open-loop mix and connections
  /// (the capacity_rps metric); without one, capacity is the closed-loop
  /// throughput of the main phase.
  bool capacity_phase = false;
  /// Requests the traced run replays from the start of the stream.
  size_t trace_requests = 3000;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The sccf_server flags for `d` (without --port / --data_dir).
std::vector<std::string> DaemonFlags(const DaemonConfig& d);

/// One request. Ingest triples live in `events`.
struct Request {
  Kind kind = Kind::kPing;
  int user = -1;
  std::vector<Engine::Event> events;
};

/// Appends the multibulk RESP encoding of `r` (what the load generator sends).
void EncodeRequest(const Request& r, std::string* out);

/// Seed-deterministic request stream of one workload. Traffic comes from
/// the src/scenario generators with their dims set to the daemon's corpus
/// bounds, so every id is valid. Generated events are consumed in timestamp
/// order and wrap around (with shifted timestamps) when exhausted.
class RequestSource {
 public:
  RequestSource(const WorkloadSpec& spec, uint64_t seed, size_t corpus_users,
                size_t corpus_items);

  /// Next request of the workload's main mix (an INGEST frame on the
  /// closed-loop connections of ingest_burst).
  Request Next();
  /// Next RECOMMEND of ingest_burst's open-loop read probe.
  Request NextProbe();
  /// The sequential form used by the traced replay and the unqueued wire
  /// pass: the main mix, with ingest_burst's probes interleaved after
  /// every kProbeEvery frames.
  Request NextSequential();

  static constexpr size_t kProbeEvery = 8;

 private:
  const Engine::Event& NextEvent();

  const WorkloadSpec& spec_;
  sccf::Rng rng_;
  sccf::Rng probe_rng_;
  std::vector<Engine::Event> events_;  // generator traffic, ts order
  size_t cursor_ = 0;
  int64_t lap_ts_ = 0;  // timestamp shift of the current lap
  int64_t ts_span_ = 1;
  /// True for exactly `per_block` of every `block` consecutive calls, at
  /// seeded positions: the mix's ingest share is exact, not Bernoulli.
  bool NextInBlock(size_t block, size_t per_block);

  std::vector<int> recent_;  // kIngestRecommend: recently ingested users
  size_t recent_pos_ = 0;
  std::vector<char> block_;  // NextInBlock's current block
  size_t block_pos_ = 0;
  size_t sequential_ = 0;
};

/// The daemon's engine rebuilt in-process from the same flags: the same
/// synthetic corpus, leave-one-out split and untrained FISM that
/// sccf_server bootstraps from.
class Corpus {
 public:
  explicit Corpus(const DaemonConfig& d);
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  size_t users() const { return split_->num_users(); }
  size_t items() const { return dataset_->num_items(); }
  const sccf::models::Fism& fism() const { return *fism_; }

  /// A bootstrapped engine over this corpus; `data_dir` non-empty journals
  /// there. The corpus must outlive it.
  std::unique_ptr<Engine> MakeEngine(const std::string& data_dir) const;

 private:
  DaemonConfig config_;
  std::unique_ptr<sccf::data::Dataset> dataset_;
  std::unique_ptr<sccf::data::LeaveOneOutSplit> split_;
  std::unique_ptr<sccf::models::Fism> fism_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
