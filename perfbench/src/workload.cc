#include "workload.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "data/synthetic.h"
#include "scenario/scenario.h"
#include "util/logging.h"

namespace perfbench {

namespace {

using sccf::quant::Storage;

// Open-loop rates are fixed numbers, not derived from the host at run
// time, so a change that slows the daemon shows up as latency instead of
// moving the offered load. They sit well below the closed-loop
// capacity_rps measured on a 4-vCPU AVX-512 Xeon VM (see README.md).
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    WorkloadSpec read_mostly;
    read_mostly.name = "read_mostly";
    read_mostly.generator = "power_law";
    read_mostly.open_connections = 32;
    read_mostly.rate_rps = 500.0;
    read_mostly.capacity_phase = true;
    w.push_back(read_mostly);

    WorkloadSpec ingest_burst;
    ingest_burst.name = "ingest_burst";
    ingest_burst.mix = Mix::kIngestFrames;
    ingest_burst.generator = "bursty";
    ingest_burst.events_per_user = 30;
    ingest_burst.daemon.journal = true;
    ingest_burst.closed_connections = 4;
    ingest_burst.frame_events = 32;
    // The read probe: one connection of open-loop RECOMMENDs, so the read
    // latency metrics exist on the write-bound mix too.
    ingest_burst.open_connections = 1;
    ingest_burst.rate_rps = 200.0;
    ingest_burst.trace_requests = 900;  // frames cost ~2.5 ms each
    w.push_back(ingest_burst);

    WorkloadSpec mixed_sq8;
    mixed_sq8.name = "mixed_sq8";
    mixed_sq8.mix = Mix::kIngestRecommend;
    mixed_sq8.generator = "flash_sale";
    mixed_sq8.daemon.storage = Storage::kSq8;
    mixed_sq8.daemon.compaction_interval_ms = 20;
    mixed_sq8.daemon.background = true;
    mixed_sq8.open_connections = 16;
    mixed_sq8.rate_rps = 600.0;
    mixed_sq8.capacity_phase = true;
    w.push_back(mixed_sq8);
    return w;
  }();
  return kWorkloads;
}

void AppendBulk(std::string* out, std::string_view s) {
  out->push_back('$');
  out->append(std::to_string(s.size()));
  out->append("\r\n");
  out->append(s);
  out->append("\r\n");
}

void AppendBulkInt(std::string* out, int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  AppendBulk(out, std::string_view(buf, static_cast<size_t>(res.ptr - buf)));
}

}  // namespace

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kRecommend: return "recommend";
    case Kind::kNeighbors: return "neighbors";
    case Kind::kHistory: return "history";
    case Kind::kIngest: return "ingest";
    case Kind::kPing: return "ping";
    case Kind::kStats: return "stats";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) names.push_back(w.name);
  return names;
}

std::vector<std::string> DaemonFlags(const DaemonConfig& d) {
  std::vector<std::string> f = {
      "--users=" + std::to_string(d.users),
      "--items=" + std::to_string(d.items),
      "--dim=" + std::to_string(d.dim),
      "--shards=" + std::to_string(d.shards),
      "--compaction=" + std::to_string(d.compaction),
      "--compaction_interval=" + std::to_string(d.compaction_interval_ms),
      std::string("--storage=") + sccf::quant::StorageName(d.storage),
      "--seed=" + std::to_string(d.corpus_seed)};
  if (d.background) f.push_back("--background");
  return f;
}

void EncodeRequest(const Request& r, std::string* out) {
  size_t args = 1;
  switch (r.kind) {
    case Kind::kRecommend: args = 3; break;
    case Kind::kNeighbors:
    case Kind::kHistory: args = 2; break;
    case Kind::kIngest: args = 1 + 3 * r.events.size(); break;
    case Kind::kPing:
    case Kind::kStats: args = 1; break;
  }
  out->push_back('*');
  out->append(std::to_string(args));
  out->append("\r\n");
  switch (r.kind) {
    case Kind::kRecommend:
      AppendBulk(out, "RECOMMEND");
      AppendBulkInt(out, r.user);
      AppendBulkInt(out, kTopN);
      break;
    case Kind::kNeighbors:
      AppendBulk(out, "NEIGHBORS");
      AppendBulkInt(out, r.user);
      break;
    case Kind::kHistory:
      AppendBulk(out, "HISTORY");
      AppendBulkInt(out, r.user);
      break;
    case Kind::kIngest:
      AppendBulk(out, "INGEST");
      for (const Engine::Event& e : r.events) {
        AppendBulkInt(out, e.user);
        AppendBulkInt(out, e.item);
        AppendBulkInt(out, e.ts);
      }
      break;
    case Kind::kPing: AppendBulk(out, "PING"); break;
    case Kind::kStats: AppendBulk(out, "STATS"); break;
  }
}

RequestSource::RequestSource(const WorkloadSpec& spec, uint64_t seed,
                             size_t corpus_users, size_t corpus_items)
    : spec_(spec), rng_(seed), probe_rng_(seed ^ 0x9e3779b97f4a7c15ull) {
  sccf::scenario::ScenarioSpec scen;
  scen.generator = spec.generator;
  scen.num_users = corpus_users;
  scen.num_items = corpus_items;
  scen.events_per_user = spec.events_per_user;
  scen.seed = seed;
  auto source = sccf::scenario::MakeScenario(scen);
  SCCF_CHECK(source.ok()) << source.status().ToString();
  auto ds = (*source)->Load();
  SCCF_CHECK(ds.ok()) << ds.status().ToString();
  for (size_t u = 0; u < ds->num_users(); ++u) {
    const std::vector<int>& items = ds->sequence(u);
    const std::vector<int64_t>& ts = ds->timestamps(u);
    for (size_t i = 0; i < items.size(); ++i) {
      events_.push_back({static_cast<int>(u), items[i], ts[i]});
    }
  }
  SCCF_CHECK(!events_.empty());
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Engine::Event& a, const Engine::Event& b) {
                     return a.ts < b.ts;
                   });
  ts_span_ = events_.back().ts + 1;
}

const Engine::Event& RequestSource::NextEvent() {
  if (cursor_ == events_.size()) {
    cursor_ = 0;
    lap_ts_ += ts_span_;
  }
  return events_[cursor_++];
}

Request RequestSource::Next() {
  Request r;
  if (spec_.mix == Mix::kIngestFrames) {
    r.kind = Kind::kIngest;
    r.events.reserve(spec_.frame_events);
    for (size_t i = 0; i < spec_.frame_events; ++i) {
      Engine::Event e = NextEvent();
      e.ts += lap_ts_;
      r.events.push_back(e);
    }
    return r;
  }
  if (spec_.mix == Mix::kIngestRecommend) {
    if (NextInBlock(2, 1)) {
      Engine::Event e = NextEvent();
      e.ts += lap_ts_;
      constexpr size_t kRecent = 64;
      if (recent_.size() < kRecent) {
        recent_.push_back(e.user);
      } else {
        recent_[recent_pos_++ % kRecent] = e.user;
      }
      r.kind = Kind::kIngest;
      r.events.push_back(e);
    } else {
      r.kind = Kind::kRecommend;
      r.user = recent_.empty() ? NextEvent().user
                               : recent_[rng_.Uniform(recent_.size())];
    }
    return r;
  }
  // Mix::kReadMostly; users follow the generator's traffic.
  const bool ingest = NextInBlock(10, 1);
  const double coin = rng_.UniformDouble();
  Engine::Event e = NextEvent();
  e.ts += lap_ts_;
  r.user = e.user;
  if (ingest) {
    r.kind = Kind::kIngest;
    r.events.push_back(e);
  } else if (coin < 0.5) {
    r.kind = Kind::kRecommend;
  } else if (coin < 0.9) {
    r.kind = Kind::kNeighbors;
  } else {
    r.kind = Kind::kHistory;
  }
  return r;
}

bool RequestSource::NextInBlock(size_t block, size_t per_block) {
  if (block_pos_ == block_.size()) {
    block_.assign(block, 0);
    std::fill(block_.begin(), block_.begin() + per_block, 1);
    rng_.Shuffle(block_);
    block_pos_ = 0;
  }
  return block_[block_pos_++] != 0;
}

Request RequestSource::NextProbe() {
  Request r;
  r.kind = Kind::kRecommend;
  r.user = events_[probe_rng_.Uniform(events_.size())].user;
  return r;
}

Request RequestSource::NextSequential() {
  if (spec_.mix == Mix::kIngestFrames && spec_.open_connections > 0 &&
      sequential_++ % (kProbeEvery + 1) == kProbeEvery) {
    return NextProbe();
  }
  return Next();
}

Corpus::Corpus(const DaemonConfig& d) : config_(d) {
  // Mirrors src/server/sccf_server_main.cc; the pre-load probe pins the
  // two byte for byte, so any drift fails the benchmark.
  sccf::data::SyntheticConfig syn;
  syn.name = "server-corpus";
  syn.num_users = d.users;
  syn.num_items = d.items;
  syn.num_clusters = 20;
  syn.min_actions = 10;
  syn.max_actions = 30;
  syn.seed = d.corpus_seed;
  sccf::data::SyntheticGenerator gen(syn);
  auto dataset = gen.Generate();
  SCCF_CHECK(dataset.ok()) << dataset.status().ToString();
  dataset_ = std::make_unique<sccf::data::Dataset>(std::move(*dataset));
  split_ = std::make_unique<sccf::data::LeaveOneOutSplit>(*dataset_);
  sccf::models::Fism::Options fopts;
  fopts.dim = d.dim;
  fopts.epochs = 0;
  fism_ = std::make_unique<sccf::models::Fism>(fopts);
  SCCF_CHECK(fism_->Fit(*split_).ok());
}

std::unique_ptr<Engine> Corpus::MakeEngine(const std::string& data_dir) const {
  Engine::Options eopts;
  eopts.num_shards = config_.shards;
  eopts.compaction_threshold = config_.compaction;
  eopts.compaction_interval_ms = config_.compaction_interval_ms;
  eopts.background_compaction = config_.background;
  eopts.storage = config_.storage;
  eopts.recover_dir = data_dir;
  auto engine = std::make_unique<Engine>(*fism_, eopts);
  const sccf::Status booted = engine->BootstrapFromSplit(*split_);
  SCCF_CHECK(booted.ok()) << booted.ToString();
  return engine;
}

}  // namespace perfbench
