// Tests of the benchmark harness's own arithmetic: percentiles, the tail
// rule, open-loop latency accounting and span self times.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

size_t Rank(size_t n, double q) {  // 1-based nearest rank, computed exactly
  size_t r = 1;
  while (static_cast<double>(r) < q * static_cast<double>(n)) ++r;
  return r;
}

TEST(Harness, PercentileEqualsRankInExactSort) {
  std::mt19937 rng(11);
  std::exponential_distribution<double> dist(2.0);
  for (size_t n : {1u, 2u, 7u, 100u, 1001u, 4096u}) {
    std::vector<double> values(n);
    for (double& v : values) v = dist(rng);
    std::vector<double> exact = values;
    std::sort(exact.begin(), exact.end());
    std::vector<double> summarized = values;
    const Summary s = Summarize(&summarized);
    EXPECT_EQ(s.n, n);
    EXPECT_EQ(s.p50, exact[Rank(n, 0.5) - 1]) << n;
    EXPECT_EQ(s.tail, exact[Rank(n, s.tail_percent / 100.0) - 1]) << n;
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(PercentileSorted(exact, q), exact[Rank(n, q) - 1])
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(Harness, TailIsHighestPercentileWithTenSamplesBeyond) {
  for (size_t n = 1; n <= 3000; ++n) {
    const int p = TailPercent(n);
    ASSERT_GE(p, 50);
    ASSERT_LE(p, 99);
    const auto beyond = [n](int pct) { return n - Rank(n, pct / 100.0); };
    if (p > 50) {
      EXPECT_GE(beyond(p), 10u) << n;
    }
    if (p < 99) {
      EXPECT_LT(beyond(p + 1), 10u) << n;  // nothing higher qualifies
    }
  }
  EXPECT_EQ(TailPercent(1000), 99);
  EXPECT_EQ(TailPercent(999), 98);
  EXPECT_EQ(TailPercent(500), 98);
  EXPECT_EQ(TailPercent(499), 97);
  EXPECT_EQ(TailPercent(19), 50);
}

TEST(Harness, WindowedSummaryIsTheMedianOfWindows) {
  // Five windows of 2000 samples; window 3 holds a stall. The windowed
  // tail ignores it, while the pooled tail is dominated by it.
  std::vector<std::vector<double>> windows(5);
  std::vector<double> pooled;
  for (size_t w = 0; w < windows.size(); ++w) {
    for (int i = 0; i < 2000; ++i) {
      const double v = (w == 3 && i % 10 == 0) ? 50.0 : 1.0 + 0.001 * i + w;
      windows[w].push_back(v);
      pooled.push_back(v);
    }
  }
  std::vector<double> p99s;
  for (auto w : windows) p99s.push_back(Summarize(&w).tail);
  const Summary s = WindowedSummary(&windows);
  EXPECT_EQ(s.n, 10000u);
  EXPECT_EQ(s.tail_percent, 99);
  EXPECT_EQ(s.tail, Median(&p99s));
  EXPECT_LT(s.tail, 10.0);
  EXPECT_EQ(Summarize(&pooled).tail, 50.0);
}

TEST(Harness, StallIsChargedToEveryRequestScheduledDuringIt) {
  // One request due every millisecond for 200 ms; service takes 0.1 ms.
  // The generator stalls from 50 ms to 100 ms and sends its backlog when
  // it wakes; the daemon answers each request 0.1 ms after it arrives.
  constexpr double kStallLo = 0.050, kStallHi = 0.100, kService = 0.0001;
  std::vector<Timeline> runs;
  for (int i = 0; i < 200; ++i) {
    Timeline t;
    t.scheduled = i * 0.001;
    const bool stalled = t.scheduled >= kStallLo && t.scheduled < kStallHi;
    t.sent = stalled ? kStallHi : t.scheduled;
    t.done = t.sent + kService;
    runs.push_back(t);
  }
  std::vector<double> latencies;
  for (const Timeline& t : runs) {
    const double ms = LatencyMs(t);
    latencies.push_back(ms);
    if (t.scheduled >= kStallLo && t.scheduled < kStallHi) {
      // Charged the rest of the stall, not just the 0.1 ms round trip.
      EXPECT_NEAR(ms, (kStallHi - t.scheduled + kService) * 1e3, 1e-9);
      EXPECT_NEAR(LagMs(t), (kStallHi - t.scheduled) * 1e3, 1e-9);
    } else {
      EXPECT_NEAR(ms, kService * 1e3, 1e-9);
      EXPECT_EQ(LagMs(t), 0.0);
    }
  }
  // 50 of 200 requests waited: the median is clean, the tail is not.
  const Summary s = Summarize(&latencies);
  EXPECT_NEAR(s.p50, 0.1, 1e-9);
  EXPECT_GT(s.tail, 20.0);
}

TEST(Harness, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100] has children a [10,40] and b [30,60] (overlapping),
  // c [90,120] (sticking out of root); a has child g [20,25].
  const std::vector<Span> spans = {
      {1, 7, 0, 0, 100, 0},   {2, 7, 1, 10, 40, 1}, {3, 7, 1, 30, 60, 1},
      {4, 7, 1, 90, 120, 1},  {5, 7, 2, 20, 25, 2},
      // A modelled child longer than its parent leaves no self time.
      {6, 8, 0, 200, 210, 0}, {7, 8, 1, 200, 230, 6},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 50 - 10);  // union [10,60] + [90,100]
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
  EXPECT_EQ(self[5], 0);
  EXPECT_EQ(self[6], 30);
}

}  // namespace
}  // namespace perfbench
