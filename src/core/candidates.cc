#include "core/candidates.h"

#include <cmath>
#include <limits>

namespace sccf::core {

CandidateList TopNFromScores(const std::vector<float>& scores, size_t n,
                             float floor) {
  // The accumulator's floor is inclusive; this one is not.
  index::TopKAccumulator acc(
      n, std::nextafter(floor, std::numeric_limits<float>::infinity()));
  acc.OfferDense(0, scores.data(), scores.size());
  return acc.Take();
}

ScoreMoments MomentsOver(const std::vector<float>& scores,
                         const std::vector<int>& items) {
  ScoreMoments m;
  if (items.empty()) return m;
  double sum = 0.0;
  for (int i : items) sum += scores[i];
  m.mean = static_cast<float>(sum / items.size());
  double var = 0.0;
  for (int i : items) {
    const double t = scores[i] - m.mean;
    var += t * t;
  }
  var /= items.size();
  m.stddev = var > 1e-12 ? static_cast<float>(std::sqrt(var)) : 1.0f;
  return m;
}

}  // namespace sccf::core
