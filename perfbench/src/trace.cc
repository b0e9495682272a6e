// The traced run: replays a workload's request stream in-process and
// times calls into each layer's public functions from outside. Each
// request also goes once over the wire to the otherwise idle daemon (after
// a PING, the transport baseline), so the layer budget can be checked
// against the unqueued wire latency measured at the same moment.
//
// Three engines are bootstrapped from the daemon's flags. Engine A runs
// the server path (RequestParser, then server::Execute) with spans
// recorded around each call; engine C runs the same path without spans
// (the trace-overhead baseline); twin engine B receives the same requests
// as direct Engine calls, which gives the engine time that Execute wraps.
// Every call follows the same short idle gap (see Pace). Spans stay in
// memory and are written to <dir>/spans.tsv at the end.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "commands.h"
#include "index/brute_force_index.h"
#include "index/vector_index.h"
#include "json.h"
#include "persist/journal.h"
#include "server/dispatch.h"
#include "server/protocol.h"
#include "simd/kernels.h"
#include "stats.h"
#include "util/logging.h"
#include "wire.h"

namespace perfbench {

namespace {

using sccf::index::BruteForceIndex;
using sccf::index::Metric;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum Layer { kRequestLayer, kParseLayer, kDispatchLayer, kEngineLayer };
const char* LayerName(int layer) {
  switch (layer) {
    case kRequestLayer: return "request";
    case kParseLayer: return "server.parse";
    case kDispatchLayer: return "server.dispatch";
    case kEngineLayer: return "online.engine(twin)";
  }
  return "?";
}

/// What the twin engine measured for one request.
struct TwinSample {
  int64_t engine_ns = 0;
  int64_t neighbors_ns = -1;  // RECOMMEND only: Neighbors of the same user
  int64_t infer_ns = -1;      // RECOMMEND only: InferUserEmbedding
  Engine::IngestResponse ingest;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// p50 / supported-tail pair in microseconds.
void AddUsSummary(JsonObject* out, const std::string& name,
                  std::vector<double> us) {
  const Summary s = Summarize(&us);
  out->Num(name + ".p50", s.p50).Num(name + ".p99", s.tail);
}

/// Idle gap before every replayed call. A request reaching the daemon in
/// the unqueued wire pass finds its reactor idle for about one loopback
/// round trip; on a virtualized host the first instructions after such a
/// gap run measurably slower (cold caches, a halted vCPU), so every
/// in-process pass is paced the same way to stay comparable with the wire.
void Pace() { std::this_thread::sleep_for(std::chrono::microseconds(30)); }

/// The direct Engine call equivalent to one wire request, timed.
TwinSample RunTwin(Engine& b, const Request& r) {
  TwinSample t;
  Pace();
  const int64_t t0 = NowNs();
  switch (r.kind) {
    case Kind::kRecommend: {
      Engine::RecommendRequest req;
      req.user = r.user;
      req.n = kTopN;
      SCCF_CHECK(b.Recommend(req).ok());
      break;
    }
    case Kind::kNeighbors:
      SCCF_CHECK(b.Neighbors({r.user, std::nullopt}).ok());
      break;
    case Kind::kHistory:
      SCCF_CHECK(b.History({r.user}).ok());
      break;
    case Kind::kIngest: {
      Engine::IngestRequest req;
      req.events = r.events;
      auto resp = b.Ingest(req);
      SCCF_CHECK(resp.ok()) << resp.status().ToString();
      t.engine_ns = NowNs() - t0;
      t.ingest = std::move(*resp);
      return t;
    }
    case Kind::kPing:
    case Kind::kStats:
      break;
  }
  t.engine_ns = NowNs() - t0;
  return t;
}

/// For a RECOMMEND: the same user's Neighbors call and query-embedding
/// inference, which split its engine time into inference, fan-out and
/// vote. Read-only, so the twin's state stays the wire daemon's.
void RunSplit(const Engine& b, const sccf::models::Fism& fism,
              const Request& r, std::vector<float>* emb, TwinSample* t) {
  Pace();
  const int64_t n0 = NowNs();
  SCCF_CHECK(b.Neighbors({r.user, std::nullopt}).ok());
  t->neighbors_ns = NowNs() - n0;
  auto hist = b.History({r.user});
  SCCF_CHECK(hist.ok());
  const size_t take = std::min<size_t>(hist->items.size(),
                                       b.service().options().infer_window);
  const std::span<const int> window(
      hist->items.data() + hist->items.size() - take, take);
  Pace();
  const int64_t i0 = NowNs();
  fism.InferUserEmbedding(window, emb->data());
  t->infer_ns = NowNs() - i0;
}

/// Parses one encoded request the way the reactor does.
void ParseOne(sccf::server::RequestParser* parser, const std::string& bytes,
              sccf::server::Command* cmd) {
  std::string err;
  parser->Feed(bytes);
  SCCF_CHECK(parser->Next(cmd, &err) ==
             sccf::server::RequestParser::Result::kCommand)
      << err;
}

/// Index, kernel and journal measurements over one shard's population.
void MeasureLayers(const WorkloadSpec& spec, const Engine& b,
                   const sccf::models::Fism& fism,
                   const std::vector<Request>& requests,
                   const std::string& dir, JsonObject* out) {
  const auto& service = b.service();
  const size_t d = fism.embedding_dim();
  const size_t window = service.options().infer_window;
  const size_t beta = service.options().beta;

  // Shard 0's users and their current embeddings.
  std::vector<int> users;
  std::vector<float> rows;
  for (int u = 0; u < static_cast<int>(service.num_users()); ++u) {
    if (service.ShardOf(u) != 0) continue;
    auto hist = service.History(u);
    if (!hist.ok() || hist->empty()) continue;
    const size_t take = std::min(hist->size(), window);
    users.push_back(u);
    rows.resize(rows.size() + d);
    fism.InferUserEmbedding(
        std::span<const int>(hist->data() + hist->size() - take, take),
        rows.data() + rows.size() - d);
  }
  const size_t n = users.size();
  SCCF_CHECK(n > 64);
  constexpr size_t kQueries = 400;

  for (auto storage : {sccf::quant::Storage::kFp32, sccf::quant::Storage::kSq8}) {
    BruteForceIndex index(d, Metric::kCosine, /*parallel=*/false, storage);
    for (size_t i = 0; i < n; ++i) {
      SCCF_CHECK(index.Add(users[i], rows.data() + i * d).ok());
    }
    std::vector<double> us;
    for (size_t q = 0; q < kQueries; ++q) {
      const float* query = rows.data() + ((q * 7919) % n) * d;
      const int64_t t0 = NowNs();
      auto hits = index.Search(query, beta);
      us.push_back(Us(NowNs() - t0));
      SCCF_CHECK(hits.ok());
    }
    out->Num(std::string("index.search_us.") +
                 sccf::quant::StorageName(storage),
             Median(&us));

    if (storage != spec.daemon.storage) continue;
    // Drains of a full write buffer (compaction threshold rows) into the
    // workload's index representation.
    std::vector<double> drain_us;
    sccf::index::UpsertBuffer buffer(d, Metric::kCosine, storage);
    for (size_t rep = 0; rep < 200; ++rep) {
      for (size_t j = 0; j < spec.daemon.compaction; ++j) {
        const size_t i = (rep * 131 + j * 17) % n;
        buffer.Put(users[i], rows.data() + i * d);
      }
      const int64_t t0 = NowNs();
      SCCF_CHECK(buffer.DrainTo(&index).ok());
      drain_us.push_back(Us(NowNs() - t0));
    }
    out->Num("index.drain_us", Median(&drain_us));
  }

  // Batched dot kernels at shard size.
  {
    std::vector<int8_t> codes(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      codes[i] = static_cast<int8_t>(std::clamp(rows[i] * 127.0f, -127.0f, 127.0f));
    }
    std::vector<float> scores(n);
    std::vector<double> f32, i8;
    for (size_t rep = 0; rep < 300; ++rep) {
      const float* q = rows.data() + ((rep * 31) % n) * d;
      int64_t t0 = NowNs();
      sccf::simd::DotBatch(q, rows.data(), n, d, scores.data());
      f32.push_back(static_cast<double>(NowNs() - t0) / n);
      t0 = NowNs();
      sccf::simd::DotBatchI8(q, codes.data(), n, d, scores.data());
      i8.push_back(static_cast<double>(NowNs() - t0) / n);
    }
    out->Num("simd.dot_batch_ns_per_row.f32", Median(&f32))
        .Num("simd.dot_batch_ns_per_row.i8", Median(&i8));
  }

  // Journal appends of the replayed ingest frames, grouped by shard the
  // way the engine groups them.
  {
    const std::string path = dir + "/journal-bench";
    std::filesystem::remove(path);
    auto writer = sccf::persist::JournalWriter::Open(path, /*fsync_each=*/false);
    SCCF_CHECK(writer.ok()) << writer.status().ToString();
    std::vector<uint64_t> seq(service.num_shards(), 0);
    std::vector<double> append_us;
    size_t events = 0;
    for (const Request& r : requests) {
      if (r.kind != Kind::kIngest) continue;
      std::vector<std::vector<Engine::Event>> groups(service.num_shards());
      for (const Engine::Event& e : r.events) {
        groups[service.ShardOf(e.user)].push_back(e);
      }
      for (size_t s = 0; s < groups.size(); ++s) {
        if (groups[s].empty()) continue;
        const int64_t t0 = NowNs();
        SCCF_CHECK((*writer)->Append(s, ++seq[s], groups[s]).ok());
        append_us.push_back(Us(NowNs() - t0));
        events += groups[s].size();
      }
    }
    writer->reset();
    const double bytes = static_cast<double>(std::filesystem::file_size(path));
    std::filesystem::remove(path);
    out->Num("persist.journal_append_us", Median(&append_us))
        .Num("persist.journal_bytes_per_event",
             events > 0 ? bytes / static_cast<double>(events) : 0.0);
  }
}

}  // namespace

std::string RunTrace(const WorkloadSpec& spec, const WireTarget& target,
                     const TraceOptions& opt) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // Pace() sleeps its 30 us, not 80
  Corpus corpus(spec.daemon);
  const auto engine_dir = [&](const char* name) {
    if (!spec.daemon.journal) return std::string();
    const std::string d = opt.dir + "/" + name;
    std::filesystem::remove_all(d);
    return d;
  };
  std::unique_ptr<Engine> a = corpus.MakeEngine(engine_dir("engine_a"));
  std::unique_ptr<Engine> b = corpus.MakeEngine(engine_dir("engine_b"));
  std::unique_ptr<Engine> c = corpus.MakeEngine(engine_dir("engine_c"));

  RequestSource source(spec, opt.seed, corpus.users(), corpus.items());
  std::vector<Request> requests(spec.trace_requests);
  std::vector<std::string> bytes(spec.trace_requests);
  for (size_t i = 0; i < spec.trace_requests; ++i) {
    requests[i] = source.NextSequential();
    EncodeRequest(requests[i], &bytes[i]);
  }

  sccf::server::RequestParser parser_a, parser_c;
  sccf::server::Command cmd;
  std::string reply;
  std::vector<Span> spans;
  spans.reserve(spec.trace_requests * 4);
  std::vector<TwinSample> twins(spec.trace_requests);
  std::vector<float> emb(corpus.fism().embedding_dim());
  int64_t traced_ns = 0, untraced_ns = 0;

  // Per request: a PING and the request itself over the wire (one at a
  // time, so nothing queues), then the three in-process passes in rotating
  // order. Interleaving keeps the wire and in-process numbers paired in
  // time, so host-speed drift cannot open a gap between them.
  SequentialClient wire(target.host, target.port,
                        std::max(spec.open_connections + spec.closed_connections, 1));
  Request ping;
  ping.kind = Kind::kPing;
  std::vector<double> ping_us, unqueued_us[kNumKinds];
  const auto untraced = [&](size_t i) {
    Pace();
    const int64_t t0 = NowNs();
    ParseOne(&parser_c, bytes[i], &cmd);
    reply.clear();
    sccf::server::Execute(*c, cmd, &reply);
    untraced_ns += NowNs() - t0;
  };
  const auto traced = [&](size_t i) {
    Pace();
    const int64_t t0 = NowNs();
    const int64_t r0 = NowNs();
    ParseOne(&parser_a, bytes[i], &cmd);
    const int64_t r1 = NowNs();
    reply.clear();
    sccf::server::Execute(*a, cmd, &reply);
    const int64_t r2 = NowNs();
    const uint64_t root = spans.size() + 1;
    spans.push_back({root, i, kRequestLayer, r0, r2, 0});
    spans.push_back({root + 1, i, kParseLayer, r0, r1, root});
    spans.push_back({root + 2, i, kDispatchLayer, r1, r2, root});
    traced_ns += NowNs() - t0;
  };
  for (size_t i = 0; i < spec.trace_requests; ++i) {
    // The first PING wakes a reactor that sat idle through the in-process
    // passes; the timed PING and request then find it just woken, as in a
    // one-at-a-time stream (the pacing the in-process passes copy).
    wire.RoundTrip(ping);
    const int64_t p = wire.RoundTrip(ping);
    const int64_t w = wire.RoundTrip(requests[i]);
    if (p >= 0) ping_us.push_back(Us(p));
    if (w >= 0) unqueued_us[static_cast<int>(requests[i].kind)].push_back(Us(w));
    switch (i % 3) {  // rotate so no pass always runs first
      case 0: untraced(i); traced(i); twins[i] = RunTwin(*b, requests[i]); break;
      case 1: traced(i); twins[i] = RunTwin(*b, requests[i]); untraced(i); break;
      default: twins[i] = RunTwin(*b, requests[i]); untraced(i); traced(i); break;
    }
    if (requests[i].kind == Kind::kRecommend) {
      RunSplit(*b, corpus.fism(), requests[i], &emb, &twins[i]);
    }
  }

  // The twin's engine time becomes a modelled child of the dispatch span,
  // placed at its start, so the span dump shows the whole tree.
  const size_t traced_spans = spans.size();
  for (size_t s = 0; s < traced_spans; ++s) {
    if (spans[s].layer != kDispatchLayer) continue;
    const Span dispatch = spans[s];
    spans.push_back({spans.size() + 1, dispatch.request, kEngineLayer,
                     dispatch.start_ns,
                     dispatch.start_ns + twins[dispatch.request].engine_ns,
                     dispatch.id});
  }
  const std::vector<int64_t> self = SelfTimesNs(spans);

  std::vector<double> parse_us, parse_kind[kNumKinds], dispatch_self[kNumKinds],
      engine_us[kNumKinds], vote_us, fanout_us, infer_us;
  double infer_ms = 0, index_ms = 0, identify_ms = 0, wall_ms = 0;
  size_t touched = 0;
  for (size_t s = 0; s < spans.size(); ++s) {
    const Span& sp = spans[s];
    const int kind = static_cast<int>(requests[sp.request].kind);
    if (sp.layer == kParseLayer) {
      parse_us.push_back(Us(sp.end_ns - sp.start_ns));
      parse_kind[kind].push_back(Us(sp.end_ns - sp.start_ns));
    } else if (sp.layer == kDispatchLayer) {
      // Signed: Execute and its twin Engine call run on different engines,
      // so a single pair can come out either way; the median of the
      // differences is the estimate (the clipped span self time would be
      // biased upward by that noise).
      dispatch_self[kind].push_back(
          Us(sp.end_ns - sp.start_ns - twins[sp.request].engine_ns));
    }
  }
  for (size_t i = 0; i < spec.trace_requests; ++i) {
    const TwinSample& t = twins[i];
    const int kind = static_cast<int>(requests[i].kind);
    engine_us[kind].push_back(Us(t.engine_ns));
    if (requests[i].kind == Kind::kRecommend) {
      vote_us.push_back(Us(t.engine_ns - t.neighbors_ns));
      fanout_us.push_back(Us(t.neighbors_ns - t.infer_ns));
      infer_us.push_back(Us(t.infer_ns));
    } else if (requests[i].kind == Kind::kIngest) {
      infer_ms += t.ingest.infer_ms;
      index_ms += t.ingest.index_ms;
      identify_ms += t.ingest.identify_ms;
      wall_ms += t.ingest.wall_ms;
      touched += t.ingest.users_touched;
    }
  }

  const auto k = [](Kind kind) { return static_cast<int>(kind); };
  JsonObject out;
  out.Int("requests", static_cast<int64_t>(spec.trace_requests))
      .Int("users", static_cast<int64_t>(corpus.users()))
      .Int("items", static_cast<int64_t>(corpus.items()))
      .Str("simd_variant",
           sccf::simd::VariantName(sccf::simd::ActiveVariant()))
      .Num("server.parse_us", Median(&parse_us))
      .Num("server.parse_us.recommend", Median(&parse_kind[k(Kind::kRecommend)]))
      .Num("server.parse_us.ingest", Median(&parse_kind[k(Kind::kIngest)]))
      .Num("server.dispatch_self_us.recommend",
           Median(&dispatch_self[k(Kind::kRecommend)]))
      .Num("server.dispatch_self_us.ingest",
           Median(&dispatch_self[k(Kind::kIngest)]));
  AddUsSummary(&out, "online.recommend_us", engine_us[k(Kind::kRecommend)]);
  AddUsSummary(&out, "online.neighbors_us", engine_us[k(Kind::kNeighbors)]);
  AddUsSummary(&out, "online.history_us", engine_us[k(Kind::kHistory)]);
  AddUsSummary(&out, "online.ingest_us", engine_us[k(Kind::kIngest)]);
  const double per_user = touched > 0 ? 1e3 / static_cast<double>(touched) : 0.0;
  out.Num("core.infer_us", infer_ms * per_user)
      .Num("core.index_us", index_ms * per_user)
      .Num("core.identify_us", identify_ms * per_user)
      .Num("core.identify_frac", wall_ms > 0 ? identify_ms / wall_ms : 0.0)
      .Num("core.users_per_ingest",
           engine_us[k(Kind::kIngest)].empty()
               ? 0.0
               : static_cast<double>(touched) /
                     engine_us[k(Kind::kIngest)].size())
      .Num("core.vote_us", Median(&vote_us))
      .Num("core.fanout_us", Median(&fanout_us))
      .Num("models.infer_us", Median(&infer_us))
      .Num("trace.overhead_frac",
           untraced_ns > 0 ? static_cast<double>(traced_ns) / untraced_ns - 1.0
                           : 0.0)
      .Int("wire_failures", static_cast<int64_t>(wire.failures()));
  const double transport = Median(&ping_us);
  out.Num("server.transport_us", transport);
  for (Kind kind : {Kind::kRecommend, Kind::kIngest}) {
    // What the wire round trip leaves unexplained by the layers timed
    // in-process: transport, parse, dispatch self time and engine.
    const std::string name = KindName(kind);
    const double unqueued = Median(&unqueued_us[k(kind)]);
    const double attributed = transport + Median(&parse_kind[k(kind)]) +
                              Median(&dispatch_self[k(kind)]) +
                              Median(&engine_us[k(kind)]);
    out.Num("server.unqueued_us." + name, unqueued)
        .Num("server.unattributed_frac." + name,
             unqueued > 0 ? (unqueued - attributed) / unqueued : 0.0);
  }

  MeasureLayers(spec, *b, corpus.fism(), requests, opt.dir, &out);

  // Span dump: one row per span, with its self time.
  std::FILE* f = std::fopen((opt.dir + "/spans.tsv").c_str(), "w");
  SCCF_CHECK(f != nullptr) << "cannot write spans to " << opt.dir;
  std::fprintf(f, "id\trequest\tkind\tlayer\tstart_ns\tend_ns\tparent\tself_ns\n");
  for (size_t s = 0; s < spans.size(); ++s) {
    const Span& sp = spans[s];
    std::fprintf(f, "%llu\t%llu\t%s\t%s\t%lld\t%lld\t%llu\t%lld\n",
                 static_cast<unsigned long long>(sp.id),
                 static_cast<unsigned long long>(sp.request),
                 KindName(requests[sp.request].kind), LayerName(sp.layer),
                 static_cast<long long>(sp.start_ns),
                 static_cast<long long>(sp.end_ns),
                 static_cast<unsigned long long>(sp.parent),
                 static_cast<long long>(self[s]));
  }
  std::fclose(f);
  return out.str();
}

}  // namespace perfbench
