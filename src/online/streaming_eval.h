#ifndef SCCF_ONLINE_STREAMING_EVAL_H_
#define SCCF_ONLINE_STREAMING_EVAL_H_

#include <cstddef>
#include <vector>

#include "core/user_based.h"
#include "data/dataset.h"
#include "models/recommender.h"
#include "util/status.h"

namespace sccf::online {

/// Prequential ("predict, then reveal") evaluation of the user-based
/// component under streaming updates.
///
/// The paper argues (Fig. 1, Sec. III-C2) that user neighborhoods must be
/// refreshed per interaction because interests drift. Table III shows the
/// refresh is *cheap*; this harness shows it is *valuable*: each user's
/// last `tail_events` interactions are replayed one at a time, and before
/// each event the held-out item is ranked by the similarity-weighted
/// neighbor votes (Eq. 12) under two regimes —
///
///   * live:        the serving Engine absorbs every revealed event
///                  (batched ingest, write-buffered index refresh when
///                  compaction_threshold > 1) and the query embedding is
///                  re-inferred per event — the SCCF deployment mode,
///                  driven through the exact production path,
///   * frozen:      fresh query embedding, but the corpus keeps the stale
///                  pre-stream snapshot (a periodically-retrained system
///                  between retrains) — isolates corpus freshness,
///   * stale query: the stale corpus queried with the user's *pre-stream*
///                  embedding — what a transductive user-based model
///                  serves, since it cannot re-infer the user at all.
///                  Isolates query-side freshness, the Fig.-1 argument.
struct StreamingEvalOptions {
  /// Events replayed from the end of each user's sequence. Users shorter
  /// than 2 * tail_events are skipped.
  size_t tail_events = 5;
  std::vector<size_t> cutoffs = {20, 50};
  size_t beta = 100;
  size_t infer_window = 15;
  size_t vote_window = 15;
  core::IndexKind index_kind = core::IndexKind::kBruteForce;
  /// Engine write-buffer flush threshold for the live regime (see
  /// core::RealTimeService::Options::compaction_threshold). 1 writes
  /// every refresh through; > 1 exercises the buffered-upsert path,
  /// measuring the recall-vs-compaction-cadence trade-off for the ANN
  /// backends (queries merge the buffer, so brute force is exact at any
  /// threshold).
  size_t compaction_threshold = 1;

  /// Batched reveal: predict this many future events against one engine
  /// snapshot, then reveal them all in a single batched Ingest (one
  /// OnInteractionBatch, one shard-lock round, one re-inference per
  /// touched user) — Table V-style evaluation at batch speed on large
  /// logs. 1 reproduces the legacy event-at-a-time loop bit-identically.
  /// Larger windows trade intra-window neighborhood freshness (a user's
  /// second event in a window is predicted without their first having
  /// been absorbed) for throughput. Must be >= 1.
  size_t reveal_window = 1;
};

struct StreamingEvalResult {
  std::vector<size_t> cutoffs;
  std::vector<double> live_hr;
  std::vector<double> live_ndcg;
  std::vector<double> frozen_hr;
  std::vector<double> frozen_ndcg;
  std::vector<double> stale_query_hr;
  std::vector<double> stale_query_ndcg;
  size_t num_predictions = 0;

  double LiveNdcgAt(size_t k) const;
  double FrozenNdcgAt(size_t k) const;
  double StaleQueryNdcgAt(size_t k) const;
};

/// Runs the prequential comparison, driving the live regime through the
/// serving Engine (online/engine.h). `model` must be fitted on the same
/// corpus. Deterministic.
StatusOr<StreamingEvalResult> EvaluateStreamingUserBased(
    const models::InductiveUiModel& model, const data::Dataset& dataset,
    const StreamingEvalOptions& options = {});

}  // namespace sccf::online

#endif  // SCCF_ONLINE_STREAMING_EVAL_H_
