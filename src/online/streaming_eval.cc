#include "online/streaming_eval.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "online/engine.h"
#include "util/logging.h"

namespace sccf::online {

namespace {

// Rank of `target` among the Eq. 12 vote scores of `neighbors`, whose
// histories `history_of(id)` returns; `history` is masked to 0 votes.
template <typename HistoryOf>
size_t RankByVotes(const std::vector<index::Neighbor>& neighbors,
                   const HistoryOf& history_of, std::span<const int> history,
                   int target, size_t num_items, size_t vote_window) {
  core::VoteTally tally(num_items, vote_window);
  for (const auto& nb : neighbors) tally.Add(history_of(nb.id), nb.score);
  std::vector<float>& scores = tally.scores();
  for (int item : history) scores[item] = 0.0f;
  const float t = scores[target];
  size_t better = 0;
  for (float s : scores) better += s > t;
  return better + 1;
}

}  // namespace

double StreamingEvalResult::LiveNdcgAt(size_t k) const {
  for (size_t i = 0; i < cutoffs.size(); ++i) {
    if (cutoffs[i] == k) return live_ndcg[i];
  }
  return 0.0;
}

double StreamingEvalResult::FrozenNdcgAt(size_t k) const {
  for (size_t i = 0; i < cutoffs.size(); ++i) {
    if (cutoffs[i] == k) return frozen_ndcg[i];
  }
  return 0.0;
}

double StreamingEvalResult::StaleQueryNdcgAt(size_t k) const {
  for (size_t i = 0; i < cutoffs.size(); ++i) {
    if (cutoffs[i] == k) return stale_query_ndcg[i];
  }
  return 0.0;
}

StatusOr<StreamingEvalResult> EvaluateStreamingUserBased(
    const models::InductiveUiModel& model, const data::Dataset& dataset,
    const StreamingEvalOptions& options) {
  if (model.num_items() == 0) {
    return Status::FailedPrecondition("model must be fitted");
  }
  if (options.tail_events == 0 || options.cutoffs.empty()) {
    return Status::InvalidArgument("tail_events and cutoffs required");
  }
  if (options.reveal_window == 0) {
    return Status::InvalidArgument("reveal_window must be >= 1");
  }
  const size_t n = dataset.num_users();
  const size_t d = model.embedding_dim();
  const size_t m = dataset.num_items();

  // Bootstrap snapshot: every user's sequence minus the replayed tail.
  auto prefix_len = [&](size_t u) -> size_t {
    const size_t len = dataset.sequence(u).size();
    return len >= 2 * options.tail_events ? len - options.tail_events : len;
  };

  // The live regime IS the deployment loop, so it runs through the
  // serving Engine: one shard (bit-identical to a single index, same
  // insertion order), one batched ingest per reveal window, and the
  // write-buffered index refresh when compaction_threshold > 1.
  Engine::Options live_opts;
  live_opts.beta = options.beta;
  live_opts.infer_window = options.infer_window;
  live_opts.vote_window = options.vote_window;
  live_opts.num_shards = 1;
  live_opts.index_kind = options.index_kind;
  live_opts.compaction_threshold = options.compaction_threshold;
  Engine engine(model, live_opts);
  {
    std::vector<Engine::UserState> states(n);
    for (size_t u = 0; u < n; ++u) {
      states[u].user = static_cast<int>(u);
      const auto& seq = dataset.sequence(u);
      states[u].history.assign(seq.begin(), seq.begin() + prefix_len(u));
    }
    SCCF_RETURN_NOT_OK(engine.Bootstrap(states));
  }

  // The frozen/stale baselines keep an explicit pre-stream snapshot —
  // they model systems that are *not* the deployment loop, so they stay
  // on a hand-managed index and vote from the users' prefixes.
  auto prefix_of = [&](int u) {
    return std::span<const int>(dataset.sequence(u).data(), prefix_len(u));
  };
  std::vector<float> bootstrap_emb(n * d, 0.0f);
  std::vector<int> populated;  // users with a non-empty prefix
  std::vector<float> populated_emb;
  for (size_t u = 0; u < n; ++u) {
    const std::span<const int> prefix = prefix_of(static_cast<int>(u));
    if (prefix.empty()) continue;
    float* emb = bootstrap_emb.data() + u * d;
    core::InferRecent(model, prefix, options.infer_window, emb);
    populated.push_back(static_cast<int>(u));
    populated_emb.insert(populated_emb.end(), emb, emb + d);
  }
  SCCF_ASSIGN_OR_RETURN(
      std::unique_ptr<index::VectorIndex> frozen,
      core::BuildIndex(options.index_kind, index::Metric::kCosine,
                       quant::Storage::kFp32, {}, {}, d, populated,
                       populated_emb));

  StreamingEvalResult result;
  result.cutoffs = options.cutoffs;
  result.live_hr.assign(options.cutoffs.size(), 0.0);
  result.live_ndcg.assign(options.cutoffs.size(), 0.0);
  result.frozen_hr.assign(options.cutoffs.size(), 0.0);
  result.frozen_ndcg.assign(options.cutoffs.size(), 0.0);
  result.stale_query_hr.assign(options.cutoffs.size(), 0.0);
  result.stale_query_ndcg.assign(options.cutoffs.size(), 0.0);

  // Interleave every user's tail events in global timestamp order, so a
  // prediction for user u sees the *other* users' already-revealed events
  // in the live regime — neighborhood freshness is exactly what differs.
  struct TailEvent {
    int64_t ts;
    size_t user;
    size_t pos;  // index into the user's sequence
  };
  std::vector<TailEvent> events;
  for (size_t u = 0; u < n; ++u) {
    const auto& seq = dataset.sequence(u);
    if (seq.size() < 2 * options.tail_events) continue;
    for (size_t t = prefix_len(u); t < seq.size(); ++t) {
      events.push_back({dataset.timestamps(u)[t], u, t});
    }
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const TailEvent& a, const TailEvent& b) { return a.ts < b.ts; });

  // The live regime votes from the engine's current histories.
  auto live_history_of = [&](int u) {
    auto resp = engine.History({u});
    return resp.ok() ? std::move(resp->items) : std::vector<int>{};
  };

  // Windowed predict-then-reveal: every event in a window is predicted
  // against the engine state left by the previous window, then the whole
  // window is revealed in one batched Ingest (one shard-lock round, one
  // re-inference per touched user). reveal_window == 1 is exactly the
  // legacy event-at-a-time loop.
  std::vector<float> emb(d);
  for (size_t begin = 0; begin < events.size();
       begin += options.reveal_window) {
    const size_t end =
        std::min(events.size(), begin + options.reveal_window);

    for (size_t i = begin; i < end; ++i) {
      const TailEvent& e = events[i];
      const auto& seq = dataset.sequence(e.user);
      const int target = seq[e.pos];
      const std::span<const int> history(seq.data(), e.pos);

      // Predict under both regimes. The query embedding is always fresh
      // (the query side is inductive either way); what differs is the
      // staleness of the indexed corpus and of the neighbors' histories.
      // The live neighborhood comes straight from the Engine; with
      // reveal_window == 1 its stored history for e.user is exactly
      // `history` here (staged upserts are merged into the search).
      auto live_resp =
          engine.Neighbors({static_cast<int>(e.user), std::nullopt});
      SCCF_RETURN_NOT_OK(live_resp.status());
      core::InferRecent(model, history, options.infer_window, emb.data());
      auto frozen_nbrs = frozen->Search(emb.data(), options.beta,
                                        static_cast<int>(e.user));
      SCCF_RETURN_NOT_OK(frozen_nbrs.status());
      auto stale_nbrs = frozen->Search(bootstrap_emb.data() + e.user * d,
                                       options.beta,
                                       static_cast<int>(e.user));
      SCCF_RETURN_NOT_OK(stale_nbrs.status());

      const size_t w = options.vote_window;
      const size_t live_rank = RankByVotes(
          live_resp->neighbors, live_history_of, history, target, m, w);
      const size_t frozen_rank =
          RankByVotes(*frozen_nbrs, prefix_of, history, target, m, w);
      const size_t stale_rank =
          RankByVotes(*stale_nbrs, prefix_of, history, target, m, w);
      for (size_t c = 0; c < options.cutoffs.size(); ++c) {
        const size_t k = options.cutoffs[c];
        result.live_hr[c] += live_rank <= k ? 1.0 : 0.0;
        result.frozen_hr[c] += frozen_rank <= k ? 1.0 : 0.0;
        result.stale_query_hr[c] += stale_rank <= k ? 1.0 : 0.0;
        result.live_ndcg[c] +=
            live_rank <= k ? 1.0 / std::log2(live_rank + 1.0) : 0.0;
        result.frozen_ndcg[c] +=
            frozen_rank <= k ? 1.0 / std::log2(frozen_rank + 1.0) : 0.0;
        result.stale_query_ndcg[c] +=
            stale_rank <= k ? 1.0 / std::log2(stale_rank + 1.0) : 0.0;
      }
      ++result.num_predictions;
    }

    // Reveal: the live Engine absorbs the window's interactions
    // (history, embedding re-inference, buffered index refresh); the
    // frozen regime keeps serving the stale snapshot.
    // `identify` is off — the next prediction does its own search.
    Engine::IngestRequest reveal;
    reveal.identify = false;
    reveal.events.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const TailEvent& e = events[i];
      reveal.events.push_back({static_cast<int>(e.user),
                               dataset.sequence(e.user)[e.pos], e.ts});
    }
    SCCF_RETURN_NOT_OK(engine.Ingest(reveal).status());
  }

  if (result.num_predictions > 0) {
    for (size_t c = 0; c < options.cutoffs.size(); ++c) {
      result.live_hr[c] /= result.num_predictions;
      result.live_ndcg[c] /= result.num_predictions;
      result.frozen_hr[c] /= result.num_predictions;
      result.frozen_ndcg[c] /= result.num_predictions;
      result.stale_query_hr[c] /= result.num_predictions;
      result.stale_query_ndcg[c] /= result.num_predictions;
    }
  }
  return result;
}

}  // namespace sccf::online
