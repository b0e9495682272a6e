#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Summary statistics and span arithmetic shared by the wire load generator
// and the traced in-process replay. Pure functions, unit-tested in
// tests/harness_test.cc.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of ascending `sorted`: the value at rank
/// ceil(q * n) (1-based), i.e. the smallest sample with at least a q share
/// of the samples at or below it. q in (0, 1]. Pre: !sorted.empty().
double PercentileSorted(const std::vector<double>& sorted, double q);

/// The tail percentile a sample of `n` supports, in whole percent: the
/// highest P <= `cap` (99 by default) that leaves at least ten samples
/// beyond its nearest rank. Falls back to 50 when even the median has
/// fewer than ten samples beyond it.
int TailPercent(size_t n, int cap = 99);

/// Median, supported tail percentile and sample count of a latency set.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  int tail_percent = 0;
};

/// Sorts `values` in place and summarizes them (all zero when empty).
Summary Summarize(std::vector<double>* values);

/// Summary over consecutive time windows of one run: the median of the
/// windows' p50s and of their tails, so one stall moves at most one window.
/// Every window's tail is taken at the same percentile, the highest that
/// each (non-empty) window supports; `n` is the total sample count.
Summary WindowedSummary(std::vector<std::vector<double>>* windows);

/// Median of `values` (sorted in place); 0 when empty.
double Median(std::vector<double>* values);

/// One request of an open- or closed-loop run, as the load generator records
/// it. Times are steady-clock seconds. A closed-loop request has no
/// schedule of its own: its `scheduled` equals `sent`.
struct Timeline {
  double scheduled = 0.0;
  double sent = 0.0;
  double done = -1.0;  ///< < 0 while unanswered
};

/// Latency charged to a request: completion minus the time it was due to
/// be sent, so a stall (in the generator or the server) is charged to
/// every request scheduled during it, not only to the one that hit it.
inline double LatencyMs(const Timeline& t) {
  return (t.done - t.scheduled) * 1e3;
}

/// How late the generator sent a request compared with its schedule.
inline double LagMs(const Timeline& t) { return (t.sent - t.scheduled) * 1e3; }

/// One traced interval. `parent` is the id of the enclosing span (0 for a
/// root); all spans of one request share `request`.
struct Span {
  uint64_t id = 0;
  uint64_t request = 0;
  int layer = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t parent = 0;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that the union of its direct children covers.
/// Children may overlap each other and may stick out of the parent; only
/// the covered part of the parent's own interval is subtracted.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
