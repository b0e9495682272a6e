#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q among n samples.
size_t NearestRank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double q) {
  return sorted[NearestRank(sorted.size(), q) - 1];
}

int TailPercent(size_t n, int cap) {
  for (int p = cap; p > 50; --p) {
    if (n >= NearestRank(n, p / 100.0) + 10) return p;
  }
  return 50;
}

Summary Summarize(std::vector<double>* values) {
  Summary s;
  s.n = values->size();
  if (values->empty()) return s;
  std::sort(values->begin(), values->end());
  s.p50 = PercentileSorted(*values, 0.5);
  s.tail_percent = TailPercent(s.n);
  s.tail = PercentileSorted(*values, s.tail_percent / 100.0);
  return s;
}

Summary WindowedSummary(std::vector<std::vector<double>>* windows) {
  Summary out;
  out.tail_percent = 99;
  for (const std::vector<double>& w : *windows) {
    if (w.empty()) continue;
    out.n += w.size();
    out.tail_percent = std::min(out.tail_percent, TailPercent(w.size()));
  }
  if (out.n == 0) return Summary();
  std::vector<double> p50s, tails;
  for (std::vector<double>& w : *windows) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    p50s.push_back(PercentileSorted(w, 0.5));
    tails.push_back(PercentileSorted(w, out.tail_percent / 100.0));
  }
  out.p50 = Median(&p50s);
  out.tail = Median(&tails);
  return out;
}

double Median(std::vector<double>* values) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  return PercentileSorted(*values, 0.5);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children intervals clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

}  // namespace perfbench
