#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "index/brute_force_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_flat_index.h"
#include "index/vector_index.h"
#include "quant/row_store.h"
#include "simd/kernels.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace sccf::index {
namespace {

std::vector<float> RandomCorpus(size_t n, size_t d, Rng& rng) {
  std::vector<float> data(n * d);
  for (auto& v : data) v = rng.Normal();
  return data;
}

// Reference top-k: every candidate sorted by NeighborBefore, truncated.
std::vector<Neighbor> SortedTopK(std::vector<Neighbor> all, size_t k) {
  std::sort(all.begin(), all.end(), NeighborBefore);
  if (all.size() > k) all.resize(k);
  return all;
}

// Exact reference search by linear scan.
std::vector<Neighbor> ExactSearch(const std::vector<float>& corpus, size_t n,
                                  size_t d, const float* q, size_t k,
                                  Metric metric, int exclude = -1) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) == exclude) continue;
    float score;
    if (metric == Metric::kCosine) {
      score = tensor_ops::Cosine(q, corpus.data() + i * d, d);
    } else {
      score = tensor_ops::Dot(q, corpus.data() + i * d, d);
    }
    all.push_back({static_cast<int>(i), score});
  }
  return SortedTopK(std::move(all), k);
}

double RecallAtK(const std::vector<Neighbor>& got,
                 const std::vector<Neighbor>& truth) {
  std::set<int> truth_ids;
  for (const auto& nb : truth) truth_ids.insert(nb.id);
  size_t hits = 0;
  for (const auto& nb : got) hits += truth_ids.count(nb.id);
  return truth.empty() ? 1.0
                       : static_cast<double>(hits) / truth.size();
}

// ------------------------------------------------------ TopKAccumulator

TEST(TopKAccumulatorTest, KeepsBestK) {
  TopKAccumulator acc(3);
  for (int i = 0; i < 10; ++i) acc.Offer(i, static_cast<float>(i));
  auto out = acc.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 9);
  EXPECT_EQ(out[1].id, 8);
  EXPECT_EQ(out[2].id, 7);
}

TEST(TopKAccumulatorTest, FewerThanK) {
  TopKAccumulator acc(5);
  acc.Offer(1, 0.5f);
  acc.Offer(2, 0.9f);
  auto out = acc.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 2);
}

TEST(TopKAccumulatorTest, ZeroKAcceptsNothing) {
  TopKAccumulator acc(0);
  acc.Offer(1, 1.0f);
  EXPECT_TRUE(acc.Take().empty());
}

TEST(TopKAccumulatorTest, TiesBrokenByAscendingId) {
  TopKAccumulator acc(2);
  acc.Offer(5, 1.0f);
  acc.Offer(3, 1.0f);
  acc.Offer(9, 1.0f);
  auto out = acc.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 3);
  EXPECT_EQ(out[1].id, 5);
}

TEST(TopKAccumulatorTest, FloorIsTheKthScoreOnceKAreHeld) {
  TopKAccumulator acc(2, /*floor=*/-5.0f);
  EXPECT_EQ(acc.Floor(), -5.0f);
  acc.Offer(0, 1.0f);
  EXPECT_EQ(acc.Floor(), -5.0f);
  acc.Offer(1, 2.0f);
  acc.Offer(2, 0.5f);
  EXPECT_EQ(acc.Floor(), 1.0f);
  acc.Offer(3, 1.0f);  // ties the k-th score with a larger id: not kept
  acc.Offer(4, -7.0f);
  const auto out = acc.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1);
  EXPECT_EQ(out[1].id, 0);
}

// Bit pattern of a score, so +0 and -0 are told apart.
uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(Bits(got[i].score), Bits(want[i].score))
        << what << " rank " << i;
  }
}

// The selector against sort-and-truncate on the same key. Ids 0..n-1 are
// cut into runs that arrive in shuffled order; each run is offered as a
// dense block, as a block of shuffled ids, or one candidate at a time,
// with Floor() (which compacts) called at random points in between.
TEST(TopKAccumulatorTest, MatchesSortAndTruncateOnEveryArrivalOrder) {
  Rng rng(2024);
  const float kTies[4] = {-1.0f, 0.0f, 0.5f, 1.0f};
  const float kZeros[4] = {0.0f, -0.0f, 1.0f, -1.0f};
  for (int trial = 0; trial < 400; ++trial) {
    const size_t sizes[] = {0, 1, 2, 7, 100, 255, 256, 257, 1000, 3000};
    const size_t n = sizes[rng.UniformInt(0, 9)];
    const int mode = static_cast<int>(rng.UniformInt(0, 2));
    std::vector<float> scores(n);
    for (float& v : scores) {
      if (mode == 0) v = rng.Normal();
      if (mode == 1) v = kTies[rng.UniformInt(0, 3)];
      if (mode == 2) v = kZeros[rng.UniformInt(0, 3)];
    }
    const size_t ks[] = {1, n / 2 + 1, n, n + 3,
                         static_cast<size_t>(rng.UniformInt(1, 300))};
    const size_t k = ks[rng.UniformInt(0, 4)];
    const float floor = rng.UniformInt(0, 1) == 0
                            ? -std::numeric_limits<float>::infinity()
                            : (mode == 0 ? rng.Normal() : kTies[1 + trial % 3]);
    const int exclude =
        n > 0 && rng.UniformInt(0, 1) == 0
            ? static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(n) - 1))
            : -1;

    std::vector<Neighbor> all;
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) != exclude && scores[i] >= floor) {
        all.push_back({static_cast<int>(i), scores[i]});
      }
    }
    const std::vector<Neighbor> want = SortedTopK(all, k);

    std::vector<std::pair<size_t, size_t>> runs;  // [lo, hi)
    for (size_t lo = 0; lo < n;) {
      const size_t len = std::min<size_t>(n - lo, rng.UniformInt(1, 600));
      runs.emplace_back(lo, lo + len);
      lo += len;
    }
    rng.Shuffle(runs);
    TopKAccumulator acc(k, floor);
    for (const auto& [lo, hi] : runs) {
      const int how = static_cast<int>(rng.UniformInt(0, 2));
      const bool has_exclude =
          exclude >= static_cast<int>(lo) && exclude < static_cast<int>(hi);
      if (how == 0 && !has_exclude) {
        acc.OfferDense(static_cast<int>(lo), scores.data() + lo, hi - lo);
      } else if (how == 1) {
        std::vector<int> ids(hi - lo);
        for (size_t i = 0; i < ids.size(); ++i) {
          ids[i] = static_cast<int>(lo + i);
        }
        rng.Shuffle(ids);
        std::vector<float> run_scores(ids.size());
        for (size_t i = 0; i < ids.size(); ++i) {
          run_scores[i] = scores[ids[i]];
        }
        acc.OfferBlock(ids.data(), run_scores.data(), ids.size(), exclude);
      } else {
        for (size_t i = lo; i < hi; ++i) {
          if (static_cast<int>(i) != exclude) {
            acc.Offer(static_cast<int>(i), scores[i]);
          }
        }
      }
      if (rng.UniformInt(0, 3) == 0) acc.Floor();
    }
    const std::string what = "trial " + std::to_string(trial) + " n " +
                             std::to_string(n) + " k " + std::to_string(k);
    EXPECT_EQ(acc.Floor(),
              k > 0 && want.size() == k ? want.back().score : floor)
        << what;
    ExpectSameNeighbors(acc.Take(), want, what);
  }
}

// ------------------------------------------------------ BruteForceIndex

class BruteForceParamTest : public testing::TestWithParam<Metric> {};

TEST_P(BruteForceParamTest, MatchesExactReference) {
  const Metric metric = GetParam();
  const size_t n = 200, d = 16;
  Rng rng(5);
  auto corpus = RandomCorpus(n, d, rng);
  BruteForceIndex idx(d, metric);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, metric);
    ASSERT_EQ(got->size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ((*got)[i].id, truth[i].id);
      EXPECT_NEAR((*got)[i].score, truth[i].score, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, BruteForceParamTest,
                         testing::Values(Metric::kInnerProduct,
                                         Metric::kCosine));

TEST(BruteForceIndexTest, RejectsNegativeIdAndZeroK) {
  BruteForceIndex idx(4, Metric::kInnerProduct);
  const float v[4] = {1, 2, 3, 4};
  EXPECT_FALSE(idx.Add(-1, v).ok());
  ASSERT_TRUE(idx.Add(0, v).ok());
  EXPECT_FALSE(idx.Search(v, 0).ok());
}

TEST(BruteForceIndexTest, UpdateReplacesVector) {
  BruteForceIndex idx(2, Metric::kInnerProduct);
  const float a[2] = {1, 0};
  const float b[2] = {0, 1};
  ASSERT_TRUE(idx.Add(7, a).ok());
  ASSERT_TRUE(idx.Add(8, b).ok());
  const float qa[2] = {1, 0};
  auto r = idx.Search(qa, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].id, 7);
  // Streaming update: user 7 now points the other way.
  const float a2[2] = {-1, 0};
  ASSERT_TRUE(idx.Add(7, a2).ok());
  EXPECT_EQ(idx.size(), 2u);
  r = idx.Search(qa, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].id, 8);
}

TEST(BruteForceIndexTest, ExcludeIdFiltered) {
  BruteForceIndex idx(2, Metric::kCosine);
  const float a[2] = {1, 0};
  const float b[2] = {0.9f, 0.1f};
  ASSERT_TRUE(idx.Add(0, a).ok());
  ASSERT_TRUE(idx.Add(1, b).ok());
  auto r = idx.Search(a, 2, /*exclude_id=*/0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].id, 1);
}

TEST(BruteForceIndexTest, CosineIgnoresMagnitude) {
  BruteForceIndex idx(2, Metric::kCosine);
  const float big[2] = {100, 0};
  const float small_aligned[2] = {0.01f, 0.0001f};
  ASSERT_TRUE(idx.Add(0, big).ok());
  ASSERT_TRUE(idx.Add(1, small_aligned).ok());
  const float q[2] = {1, 0.01f};
  auto r = idx.Search(q, 2);
  ASSERT_TRUE(r.ok());
  // Both nearly parallel to q: scores within a small gap; magnitudes
  // irrelevant.
  EXPECT_NEAR((*r)[0].score, 1.0f, 1e-3);
  EXPECT_NEAR((*r)[1].score, 1.0f, 1e-3);
}

// BruteForceIndex::Search against sort-and-truncate over the scores the
// batched kernel gives each row, in both storage modes, with ids equal to
// slots and not, under every SIMD variant the CPU supports. Duplicated rows
// force exact ties across block boundaries.
TEST(BruteForceIndexTest, SearchMatchesSortAndTruncateOnEveryVariant) {
  const size_t n = 700, d = 16;
  Rng rng(31);
  std::vector<float> corpus = RandomCorpus(n, d, rng);
  for (size_t dup : {1u, 255u, 256u, 511u, 699u}) {
    std::copy_n(corpus.begin() + 3 * d, d, corpus.begin() + dup * d);
  }
  std::vector<simd::Variant> variants;
  for (simd::Variant v : {simd::Variant::kScalar, simd::Variant::kAvx2,
                          simd::Variant::kAvx512}) {
    if (simd::VariantSupported(v)) variants.push_back(v);
  }
  for (simd::Variant v : variants) {
    ASSERT_TRUE(simd::ForceVariant(v).ok());
    for (quant::Storage storage :
         {quant::Storage::kFp32, quant::Storage::kSq8}) {
      for (bool slot_ids : {true, false}) {
        std::vector<int> ids(n);
        for (size_t i = 0; i < n; ++i) {
          ids[i] = slot_ids ? static_cast<int>(i) : static_cast<int>(3 * i + 7);
        }
        if (!slot_ids) rng.Shuffle(ids);
        BruteForceIndex idx(d, Metric::kCosine, storage);
        quant::RowStore rows(d, storage, /*normalize=*/true);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(idx.Add(ids[i], corpus.data() + i * d).ok());
          rows.Append(corpus.data() + i * d);
        }
        const std::vector<float> q = RandomCorpus(1, d, rng);
        const quant::RowStore::Query pq = rows.PrepareQuery(q.data());
        std::vector<float> scores(n);
        for (size_t lo = 0; lo < n; lo += 256) {
          rows.ScoreBatch(pq, lo, std::min<size_t>(256, n - lo),
                          scores.data() + lo);
        }
        for (size_t k : {1u, 10u, 100u, 700u, 800u}) {
          for (int exclude : {-1, ids[3], ids[600]}) {
            for (float floor : {-std::numeric_limits<float>::infinity(),
                                scores[256]}) {
              std::vector<Neighbor> all;
              for (size_t i = 0; i < n; ++i) {
                if (ids[i] != exclude && scores[i] >= floor) {
                  all.push_back({ids[i], scores[i]});
                }
              }
              auto got = idx.Search(q.data(), k, exclude, floor);
              ASSERT_TRUE(got.ok());
              ExpectSameNeighbors(
                  *got, SortedTopK(all, k),
                  std::string(simd::VariantName(v)) + " " +
                      quant::StorageName(storage) +
                      (slot_ids ? " slot ids" : " other ids") + " k " +
                      std::to_string(k) + " exclude " +
                      std::to_string(exclude));
            }
          }
        }
      }
    }
  }
  simd::ResetVariantFromEnv();
}

// --------------------------------------------------------- IvfFlatIndex

TEST(IvfFlatIndexTest, RequiresTraining) {
  IvfFlatIndex idx(4, Metric::kCosine, {});
  const float v[4] = {1, 0, 0, 0};
  EXPECT_EQ(idx.Add(0, v).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(idx.Search(v, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(IvfFlatIndexTest, TrainRejectsBadInput) {
  IvfFlatIndex idx(4, Metric::kCosine, {.nlist = 8});
  std::vector<float> data(4 * 4, 0.0f);
  EXPECT_FALSE(idx.Train(data, 4).ok());   // fewer than nlist
  EXPECT_FALSE(idx.Train(data, 100).ok());  // size mismatch
}

TEST(IvfFlatIndexTest, HighRecallWithEnoughProbes) {
  const size_t n = 1000, d = 16;
  Rng rng(11);
  auto corpus = RandomCorpus(n, d, rng);
  IvfFlatIndex::Options opts;
  opts.nlist = 16;
  opts.nprobe = 8;
  IvfFlatIndex idx(d, Metric::kCosine, opts);
  ASSERT_TRUE(idx.Train(corpus, n).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GT(recall / trials, 0.8);
}

TEST(IvfFlatIndexTest, FullProbeIsExact) {
  const size_t n = 300, d = 8;
  Rng rng(13);
  auto corpus = RandomCorpus(n, d, rng);
  IvfFlatIndex::Options opts;
  opts.nlist = 10;
  opts.nprobe = 10;  // scan everything
  IvfFlatIndex idx(d, Metric::kInnerProduct, opts);
  ASSERT_TRUE(idx.Train(corpus, n).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();
  auto got = idx.Search(q.data(), 5);
  ASSERT_TRUE(got.ok());
  auto truth =
      ExactSearch(corpus, n, d, q.data(), 5, Metric::kInnerProduct);
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ((*got)[i].id, truth[i].id);
  }
}

TEST(IvfFlatIndexTest, StreamingReassignment) {
  const size_t d = 4;
  Rng rng(15);
  // Two well-separated blobs so reassignment is unambiguous.
  std::vector<float> corpus;
  const size_t n = 64;
  for (size_t i = 0; i < n; ++i) {
    const float cx = i < n / 2 ? 10.0f : -10.0f;
    corpus.push_back(cx + rng.Normal() * 0.1f);
    for (size_t j = 1; j < d; ++j) corpus.push_back(rng.Normal() * 0.1f);
  }
  IvfFlatIndex idx(d, Metric::kInnerProduct, {.nlist = 2, .nprobe = 1});
  ASSERT_TRUE(idx.Train(corpus, n).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  EXPECT_EQ(idx.size(), n);
  // Move vector 0 to the other blob; with nprobe=1 it must be findable
  // from the other side, i.e., it was reassigned.
  const float moved[d] = {-10.0f, 0, 0, 0};
  ASSERT_TRUE(idx.Add(0, moved).ok());
  EXPECT_EQ(idx.size(), n);
  // Search wide enough to cover the whole target blob (whose members all
  // score within noise of the moved vector).
  const float q[d] = {-10.0f, 0, 0, 0};
  auto r = idx.Search(q, n / 2 + 4);
  ASSERT_TRUE(r.ok());
  bool found = false;
  for (const auto& nb : *r) found = found || nb.id == 0;
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------ HnswIndex

TEST(HnswIndexTest, EmptyIndexReturnsNothing) {
  HnswIndex idx(4, Metric::kCosine, {});
  const float q[4] = {1, 0, 0, 0};
  auto r = idx.Search(q, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(HnswIndexTest, HighRecallOnRandomCorpus) {
  const size_t n = 1000, d = 16;
  Rng rng(17);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex::Options opts;
  opts.m = 16;
  opts.ef_construction = 100;
  opts.ef_search = 80;
  HnswIndex idx(d, Metric::kCosine, opts);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GT(recall / trials, 0.9);
}

TEST(HnswIndexTest, UpdateTombstonesOldVector) {
  HnswIndex idx(2, Metric::kInnerProduct, {});
  const float a[2] = {1, 0};
  const float b[2] = {0, 1};
  ASSERT_TRUE(idx.Add(0, a).ok());
  ASSERT_TRUE(idx.Add(1, b).ok());
  ASSERT_TRUE(idx.Add(0, b).ok());  // update id 0
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.num_graph_nodes(), 3u);  // tombstone retained for routing
  const float q[2] = {1, 0};
  auto r = idx.Search(q, 2);
  ASSERT_TRUE(r.ok());
  // No duplicate external ids in results.
  std::set<int> ids;
  for (const auto& nb : *r) {
    EXPECT_TRUE(ids.insert(nb.id).second);
  }
}

TEST(HnswIndexTest, RecallStableUnderManyUpdates) {
  const size_t n = 300, d = 8;
  Rng rng(19);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex idx(d, Metric::kCosine, {.m = 12, .ef_construction = 80,
                                     .ef_search = 64});
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  // Update every vector once (streaming user-embedding refresh).
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      corpus[i * d + j] += rng.Normal() * 0.05f;
    }
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GT(recall / trials, 0.85);
}

TEST(HnswIndexTest, ExcludeId) {
  HnswIndex idx(2, Metric::kCosine, {});
  const float a[2] = {1, 0};
  ASSERT_TRUE(idx.Add(0, a).ok());
  ASSERT_TRUE(idx.Add(1, a).ok());
  auto r = idx.Search(a, 2, /*exclude_id=*/0);
  ASSERT_TRUE(r.ok());
  for (const auto& nb : *r) EXPECT_NE(nb.id, 0);
}

// ------------------------------------------------------- UpsertBuffer

TEST(UpsertBufferTest, PutOverwritesInPlaceAndKeepsFirstPutOrder) {
  UpsertBuffer buf(2, Metric::kInnerProduct);
  EXPECT_TRUE(buf.empty());
  const float v1[2] = {1, 0}, v2[2] = {0, 1}, v3[2] = {2, 2};
  buf.Put(7, v1);
  buf.Put(3, v2);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_TRUE(buf.contains(7));
  EXPECT_FALSE(buf.contains(4));
  buf.Put(7, v3);  // overwrite: no new row, order unchanged
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.ids(), (std::vector<int>{7, 3}));
}

TEST(UpsertBufferTest, DrainToFlushesFinalVectorsInFirstPutOrder) {
  UpsertBuffer buf(2, Metric::kInnerProduct);
  BruteForceIndex idx(2, Metric::kInnerProduct);
  const float v1[2] = {1, 0}, v2[2] = {0, 1}, v3[2] = {3, 0};
  buf.Put(7, v1);
  buf.Put(3, v2);
  buf.Put(7, v3);  // only the final vector for id 7 reaches the index
  ASSERT_TRUE(buf.DrainTo(&idx).ok());
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.contains(7));
  EXPECT_EQ(idx.size(), 2u);
  const float q[2] = {1, 0};
  auto r = idx.Search(q, 2);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].id, 7);
  EXPECT_FLOAT_EQ((*r)[0].score, 3.0f);  // v3, not v1
}

TEST(UpsertBufferTest, OfferToMatchesIndexScoringForCosine) {
  // Staged scores must agree with what the backend would report after a
  // drain (normalised-copy semantics), including the zero-vector guard
  // and exclude_id handling.
  const size_t d = 8;
  Rng rng(99);
  UpsertBuffer buf(d, Metric::kCosine);
  BruteForceIndex direct(d, Metric::kCosine);
  std::vector<float> corpus = RandomCorpus(5, d, rng);
  std::fill(corpus.begin() + 4 * d, corpus.end(), 0.0f);  // zero row
  for (int i = 0; i < 5; ++i) {
    buf.Put(i, corpus.data() + i * d);
    ASSERT_TRUE(direct.Add(i, corpus.data() + i * d).ok());
  }
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();

  TopKAccumulator acc(5);
  buf.OfferTo(q.data(), /*exclude_id=*/2, &acc);
  std::vector<Neighbor> staged = acc.Take();
  auto indexed = direct.Search(q.data(), 5, /*exclude_id=*/2);
  ASSERT_TRUE(indexed.ok());
  ASSERT_EQ(staged.size(), indexed->size());
  for (size_t i = 0; i < staged.size(); ++i) {
    EXPECT_EQ(staged[i].id, (*indexed)[i].id) << "rank " << i;
    EXPECT_NEAR(staged[i].score, (*indexed)[i].score, 1e-5) << "rank " << i;
    EXPECT_NE(staged[i].id, 2);
  }
}

// ------------------------------------------------------- SQ8 storage

// Recall of sq8 search against the fp32 exact reference: quantization
// perturbs scores by ~scale/2 per element, so top-10 overlap stays high
// on a random corpus even though exact ranks can swap.
TEST(Sq8IndexTest, BruteForceSq8TracksFp32Reference) {
  const size_t n = 200, d = 32;
  Rng rng(41);
  auto corpus = RandomCorpus(n, d, rng);
  BruteForceIndex idx(d, Metric::kCosine, quant::Storage::kSq8);
  EXPECT_EQ(idx.storage(), quant::Storage::kSq8);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
    // Scores are cosine-like: quantized but close.
    for (const auto& nb : *got) {
      const float exact =
          tensor_ops::Cosine(q.data(), corpus.data() + nb.id * d, d);
      EXPECT_NEAR(nb.score, exact, 0.05) << "id " << nb.id;
    }
  }
  EXPECT_GE(recall / trials, 0.9);
}

TEST(Sq8IndexTest, BruteForceRemoveIsATrueDelete) {
  for (quant::Storage storage :
       {quant::Storage::kFp32, quant::Storage::kSq8}) {
    const size_t n = 50, d = 8;
    Rng rng(17);
    auto corpus = RandomCorpus(n, d, rng);
    BruteForceIndex idx(d, Metric::kInnerProduct, storage);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    EXPECT_FALSE(idx.Remove(999).ok());  // NotFound
    for (int id : {0, 7, 49, 25}) {
      ASSERT_TRUE(idx.Remove(id).ok());
    }
    EXPECT_EQ(idx.size(), n - 4);
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto r = idx.Search(q.data(), n);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), n - 4);
    for (const auto& nb : *r) {
      EXPECT_NE(nb.id, 0);
      EXPECT_NE(nb.id, 7);
      EXPECT_NE(nb.id, 49);
      EXPECT_NE(nb.id, 25);
    }
    // Removed ids can come back.
    ASSERT_TRUE(idx.Add(7, corpus.data() + 7 * d).ok());
    EXPECT_EQ(idx.size(), n - 3);
  }
}

TEST(Sq8IndexTest, IvfSq8RecallAndRemove) {
  const size_t n = 300, d = 16;
  Rng rng(23);
  auto corpus = RandomCorpus(n, d, rng);
  IvfFlatIndex::Options opts;
  opts.nlist = 8;
  opts.nprobe = 8;  // full probe: bucket choice cannot cost recall
  IvfFlatIndex idx(d, Metric::kCosine, opts, quant::Storage::kSq8);
  ASSERT_TRUE(idx.Train(corpus, n).ok());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GE(recall / trials, 0.85);

  EXPECT_FALSE(idx.Remove(12345).ok());
  ASSERT_TRUE(idx.Remove(5).ok());
  ASSERT_TRUE(idx.Remove(250).ok());
  EXPECT_EQ(idx.size(), n - 2);
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();
  auto r = idx.Search(q.data(), n);
  ASSERT_TRUE(r.ok());
  for (const auto& nb : *r) {
    EXPECT_NE(nb.id, 5);
    EXPECT_NE(nb.id, 250);
  }
}

TEST(Sq8IndexTest, HnswSq8HighRecall) {
  const size_t n = 500, d = 24;
  Rng rng(31);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex::Options opts;
  opts.ef_search = 128;
  HnswIndex idx(d, Metric::kCosine, opts, quant::Storage::kSq8);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  double recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto got = idx.Search(q.data(), 10);
    ASSERT_TRUE(got.ok());
    auto truth = ExactSearch(corpus, n, d, q.data(), 10, Metric::kCosine);
    recall += RecallAtK(*got, truth);
  }
  EXPECT_GE(recall / trials, 0.85);
}

// The tombstone bound: after every Add/Remove past the 64-node floor,
// dead nodes never exceed max_tombstone_ratio of the resident graph
// (a rebuild fires the moment they would). Search stays consistent
// throughout the churn.
TEST(Sq8IndexTest, HnswTombstonesBoundedUnderChurn) {
  const size_t n = 150, d = 12;
  Rng rng(37);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex::Options opts;
  opts.max_tombstone_ratio = 0.25;
  for (quant::Storage storage :
       {quant::Storage::kFp32, quant::Storage::kSq8}) {
    HnswIndex idx(d, Metric::kCosine, opts, storage);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    // Delete-heavy churn: updates (tombstone + reinsert) and removes.
    std::vector<float> row(d);
    for (int step = 0; step < 600; ++step) {
      const int id = static_cast<int>(rng.UniformFloat() * n);
      if (step % 3 == 2) {
        const Status s = idx.Remove(id);
        (void)s;  // NotFound when already removed — fine
      } else {
        for (auto& v : row) v = rng.Normal();
        ASSERT_TRUE(idx.Add(id, row.data()).ok());
      }
      const size_t tombstones = idx.num_graph_nodes() - idx.size();
      ASSERT_LE(static_cast<double>(tombstones),
                0.25 * static_cast<double>(idx.num_graph_nodes()) + 1e-9)
          << "step " << step;
      EXPECT_EQ(idx.memory_stats().tombstones, tombstones);
    }
    // The graph still answers queries over exactly the live set.
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto r = idx.Search(q.data(), 10);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->size(), 0u);
  }
}

TEST(Sq8IndexTest, HnswRatioZeroDisablesRebuilds) {
  const size_t n = 100, d = 8;
  Rng rng(43);
  auto corpus = RandomCorpus(n, d, rng);
  HnswIndex::Options opts;
  opts.max_tombstone_ratio = 0.0;  // pre-quant behavior: unbounded
  HnswIndex idx(d, Metric::kCosine, opts);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(idx.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  std::vector<float> row(d);
  for (int step = 0; step < 200; ++step) {
    for (auto& v : row) v = rng.Normal();
    ASSERT_TRUE(idx.Add(step % static_cast<int>(n), row.data()).ok());
  }
  // Every update left a tombstone behind.
  EXPECT_EQ(idx.num_graph_nodes(), n + 200);
  EXPECT_EQ(idx.size(), n);
}

TEST(Sq8IndexTest, SerializeRoundTripIsBitExact) {
  const size_t n = 120, d = 16;
  Rng rng(53);
  auto corpus = RandomCorpus(n, d, rng);

  const auto roundtrip = [&](VectorIndex& src, VectorIndex& dst) {
    std::string blob;
    src.SerializeTo(&blob);
    ASSERT_TRUE(dst.DeserializeFrom(blob).ok());
    std::string blob2;
    dst.SerializeTo(&blob2);
    EXPECT_EQ(blob, blob2);  // codes + params verbatim, not re-quantized
    std::vector<float> q(d);
    for (auto& v : q) v = rng.Normal();
    auto a = src.Search(q.data(), 10);
    auto b = dst.Search(q.data(), 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].id, (*b)[i].id);
      EXPECT_EQ((*a)[i].score, (*b)[i].score);  // bit-exact
    }
  };

  {
    BruteForceIndex src(d, Metric::kCosine, quant::Storage::kSq8);
    BruteForceIndex dst(d, Metric::kCosine, quant::Storage::kSq8);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(src.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    roundtrip(src, dst);
  }
  {
    HnswIndex::Options opts;
    HnswIndex src(d, Metric::kCosine, opts, quant::Storage::kSq8);
    HnswIndex dst(d, Metric::kCosine, opts, quant::Storage::kSq8);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(src.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    roundtrip(src, dst);
  }
  {
    IvfFlatIndex::Options opts;
    opts.nlist = 4;
    IvfFlatIndex src(d, Metric::kCosine, opts, quant::Storage::kSq8);
    IvfFlatIndex dst(d, Metric::kCosine, opts, quant::Storage::kSq8);
    ASSERT_TRUE(src.Train(corpus, n).ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(src.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    }
    roundtrip(src, dst);
  }
}

TEST(Sq8IndexTest, DeserializeRejectsStorageModeMismatch) {
  const size_t d = 8;
  BruteForceIndex sq8(d, Metric::kCosine, quant::Storage::kSq8);
  const float v[d] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(sq8.Add(0, v).ok());
  std::string blob;
  sq8.SerializeTo(&blob);
  BruteForceIndex fp32(d, Metric::kCosine);
  const Status s = fp32.DeserializeFrom(blob);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("storage"), std::string::npos);
}

// The acceptance bar for the storage mode: per-row bytes reported by the
// new memory accounting drop >= 3x at the server-default dim of 32.
TEST(Sq8IndexTest, MemoryStatsReportAtLeast3xReduction) {
  const size_t n = 100, d = 32;
  Rng rng(61);
  auto corpus = RandomCorpus(n, d, rng);
  BruteForceIndex fp32(d, Metric::kCosine);
  BruteForceIndex sq8(d, Metric::kCosine, quant::Storage::kSq8);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(fp32.Add(static_cast<int>(i), corpus.data() + i * d).ok());
    ASSERT_TRUE(sq8.Add(static_cast<int>(i), corpus.data() + i * d).ok());
  }
  const IndexMemoryStats a = fp32.memory_stats();
  const IndexMemoryStats b = sq8.memory_stats();
  EXPECT_EQ(a.embedding_bytes, n * d * sizeof(float));
  EXPECT_EQ(a.code_bytes, 0u);
  EXPECT_EQ(b.embedding_bytes, 0u);
  EXPECT_EQ(b.code_bytes, n * (d + 2 * sizeof(float)));
  EXPECT_GE(a.embedding_bytes, 3 * b.code_bytes);
}

TEST(Sq8IndexTest, UpsertBufferSq8StagedScoresMatchDrainedIndex) {
  // The staged/compacted consistency contract in sq8 mode: OfferTo
  // scores staged rows on the same codes the backend will hold after the
  // drain, so the merged view never flickers when a compaction lands.
  const size_t d = 16;
  Rng rng(67);
  UpsertBuffer buf(d, Metric::kCosine, quant::Storage::kSq8);
  BruteForceIndex idx(d, Metric::kCosine, quant::Storage::kSq8);
  std::vector<float> corpus = RandomCorpus(6, d, rng);
  std::fill(corpus.begin() + 5 * d, corpus.end(), 0.0f);  // zero row
  for (int i = 0; i < 6; ++i) {
    buf.Put(i, corpus.data() + i * d);
  }
  std::vector<float> q(d);
  for (auto& v : q) v = rng.Normal();

  TopKAccumulator acc(6);
  buf.OfferTo(q.data(), /*exclude_id=*/-1, &acc);
  std::vector<Neighbor> staged = acc.Take();

  ASSERT_TRUE(buf.DrainTo(&idx).ok());
  auto drained = idx.Search(q.data(), 6);
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(staged.size(), drained->size());
  for (size_t i = 0; i < staged.size(); ++i) {
    EXPECT_EQ(staged[i].id, (*drained)[i].id) << "rank " << i;
    EXPECT_NEAR(staged[i].score, (*drained)[i].score, 1e-5) << "rank " << i;
  }
}

}  // namespace
}  // namespace sccf::index
