#include "index/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "util/coding.h"
#include "util/logging.h"

namespace sccf::index {

namespace {

/// Graphs below this size never rebuild: the tombstone overhead is noise
/// and tiny test graphs keep their exact historical structure.
constexpr size_t kRebuildMinNodes = 64;

}  // namespace

HnswIndex::HnswIndex(size_t dim, Metric metric, Options options,
                     quant::Storage storage)
    : metric_(metric),
      options_(options),
      rng_(options.seed),
      rows_(dim, storage, metric == Metric::kCosine) {
  SCCF_CHECK_GT(options_.m, 1u);
}

int HnswIndex::RandomLevel() {
  const double ml = 1.0 / std::log(static_cast<double>(options_.m));
  double u = rng_.UniformDouble();
  if (u < 1e-12) u = 1e-12;
  return static_cast<int>(-std::log(u) * ml);
}

int HnswIndex::GreedyClosest(const Query& q, int entry, int level) const {
  int cur = entry;
  float cur_sim = rows_.Score(q, cur);
  bool improved = true;
  while (improved) {
    improved = false;
    for (int nb : nodes_[cur].neighbors[level]) {
      const float s = rows_.Score(q, nb);
      if (s > cur_sim) {
        cur_sim = s;
        cur = nb;
        improved = true;
      }
    }
  }
  return cur;
}

std::vector<Neighbor> HnswIndex::SearchLayer(const Query& q, int entry,
                                             size_t ef, int level) const {
  // Classic dual-heap beam search; `visited` via epoch-free bool vector.
  std::vector<char> visited(nodes_.size(), 0);
  auto cmp_best = [](const Neighbor& a, const Neighbor& b) {
    return a.score < b.score;  // max-heap on similarity
  };
  auto cmp_worst = [](const Neighbor& a, const Neighbor& b) {
    return a.score > b.score;  // min-heap on similarity
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(cmp_best)>
      candidates(cmp_best);
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(cmp_worst)>
      results(cmp_worst);

  const float entry_sim = rows_.Score(q, entry);
  candidates.push({entry, entry_sim});
  results.push({entry, entry_sim});
  visited[entry] = 1;

  while (!candidates.empty()) {
    const Neighbor c = candidates.top();
    candidates.pop();
    if (results.size() >= ef && c.score < results.top().score) break;
    for (int nb : nodes_[c.id].neighbors[level]) {
      if (visited[nb]) continue;
      visited[nb] = 1;
      const float s = rows_.Score(q, nb);
      if (results.size() < ef || s > results.top().score) {
        candidates.push({nb, s});
        results.push({nb, s});
        if (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<Neighbor> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  std::reverse(out.begin(), out.end());  // descending similarity
  return out;
}

void HnswIndex::PruneNeighbors(int n, int level, size_t max_m) {
  auto& nbs = nodes_[n].neighbors[level];
  if (nbs.size() <= max_m) return;
  // The pivot node becomes the query side, as stored (decoded in sq8
  // mode), scored like every other similarity.
  const Query pivot = rows_.RowQuery(n);
  std::vector<Neighbor> scored;
  scored.reserve(nbs.size());
  for (int nb : nbs) scored.push_back({nb, rows_.Score(pivot, nb)});
  std::partial_sort(scored.begin(), scored.begin() + max_m, scored.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.score > b.score;
                    });
  nbs.clear();
  for (size_t i = 0; i < max_m; ++i) nbs.push_back(scored[i].id);
}

void HnswIndex::InsertNode(int external_id) {
  GraphNode node;
  node.external_id = external_id;
  node.level = RandomLevel();
  node.neighbors.assign(static_cast<size_t>(node.level) + 1, {});

  const int internal = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  live_[external_id] = internal;

  if (entry_point_ < 0) {
    entry_point_ = internal;
    max_level_ = nodes_[internal].level;
    return;
  }

  // The new node's row as stored (DECODED in sq8 mode) is the insertion
  // query, so the beams that place its edges run in the same space later
  // queries will score it in.
  const Query q = rows_.RowQuery(internal);

  int cur = entry_point_;
  // Descend through levels above the new node's level greedily.
  for (int level = max_level_; level > nodes_[internal].level; --level) {
    cur = GreedyClosest(q, cur, level);
  }
  // Connect at each level from min(level, max_level_) down to 0.
  for (int level = std::min(nodes_[internal].level, max_level_); level >= 0;
       --level) {
    std::vector<Neighbor> cands =
        SearchLayer(q, cur, options_.ef_construction, level);
    const size_t max_m = level == 0 ? options_.m * 2 : options_.m;
    size_t linked = 0;
    for (const Neighbor& c : cands) {
      if (c.id == internal) continue;
      if (linked >= max_m) break;
      nodes_[internal].neighbors[level].push_back(c.id);
      nodes_[c.id].neighbors[level].push_back(internal);
      PruneNeighbors(c.id, level, max_m);
      ++linked;
    }
    if (!cands.empty()) cur = cands.front().id;
  }

  if (nodes_[internal].level > max_level_) {
    max_level_ = nodes_[internal].level;
    entry_point_ = internal;
  }
}

void HnswIndex::MaybeRebuild() {
  if (options_.max_tombstone_ratio <= 0.0) return;
  if (nodes_.size() < kRebuildMinNodes) return;
  const size_t tombstones = nodes_.size() - live_.size();
  if (static_cast<double>(tombstones) <
      options_.max_tombstone_ratio * static_cast<double>(nodes_.size())) {
    return;
  }
  // Rebuild from live nodes in internal-id order (== insertion order, so
  // the rebuilt graph is deterministic). Rows move; levels are redrawn
  // from the member Rng, whose state is serialized — a recovered index
  // rebuilds identically to its uninterrupted twin.
  std::vector<GraphNode> old = std::move(nodes_);
  quant::RowStore old_rows = std::exchange(rows_, rows_.EmptyLike());
  nodes_.clear();
  nodes_.reserve(live_.size());
  live_.clear();
  entry_point_ = -1;
  max_level_ = -1;
  for (size_t i = 0; i < old.size(); ++i) {
    if (old[i].deleted) continue;
    rows_.AppendFrom(old_rows, i);
    InsertNode(old[i].external_id);
  }
}

Status HnswIndex::Add(int id, const float* vec) {
  if (id < 0) return Status::InvalidArgument("id must be non-negative");

  auto it = live_.find(id);
  if (it != live_.end()) {
    // Tombstone the previous version; it keeps routing edges.
    nodes_[it->second].deleted = true;
    live_.erase(it);
  }

  rows_.Append(vec);
  InsertNode(id);
  MaybeRebuild();
  return Status::OK();
}

Status HnswIndex::Remove(int id) {
  auto it = live_.find(id);
  if (it == live_.end()) {
    return Status::NotFound("id not in index: " + std::to_string(id));
  }
  nodes_[it->second].deleted = true;
  live_.erase(it);
  MaybeRebuild();
  return Status::OK();
}

IndexMemoryStats HnswIndex::memory_stats() const {
  IndexMemoryStats stats;
  stats.tombstones = nodes_.size() - live_.size();
  // Tombstoned rows count: they occupy RAM until a rebuild evicts them.
  stats.embedding_bytes = rows_.fp32_bytes();
  stats.code_bytes = rows_.code_bytes();
  return stats;
}

StatusOr<std::vector<Neighbor>> HnswIndex::Search(const float* query,
                                                  size_t k,
                                                  int exclude_id) const {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (entry_point_ < 0) return std::vector<Neighbor>{};

  const Query q = rows_.PrepareQuery(query);

  int cur = entry_point_;
  for (int level = max_level_; level > 0; --level) {
    cur = GreedyClosest(q, cur, level);
  }
  const size_t ef = std::max(options_.ef_search, k);
  std::vector<Neighbor> raw = SearchLayer(q, cur, ef + k, 0);

  // Filter tombstones and duplicate external ids (an id can appear once
  // live and multiple times tombstoned after updates).
  TopKAccumulator acc(k);
  for (const Neighbor& nb : raw) {
    const GraphNode& node = nodes_[nb.id];
    if (node.deleted) continue;
    if (node.external_id == exclude_id) continue;
    acc.Offer(node.external_id, nb.score);
  }
  return acc.Take();
}

// Payload layout:
//   u8 tag 'H' | u8 storage | u64 dim | i32 entry_point | i32 max_level
//   u64 rng.s[0..3] | u8 have_cached_normal | f32 cached_normal
//   u64 node_count
//   per node: i32 external_id | u8 deleted | i32 level
//             row (quant::RowStore::SerializeRow: fp32 f32 x dim, or
//                  sq8 i8 code x dim | f32 scale | f32 offset)
//             per level 0..level: u64 n | i32 neighbor x n
// The graph is persisted whole — tombstones, exact neighbor lists, entry
// point, and the RNG — because a rebuilt-from-vectors graph would draw a
// different level sequence and diverge from an uninterrupted run on the
// very next Add. live_ is derived (non-deleted nodes), not stored. SQ8
// codes and params are verbatim bytes, so restore never re-quantizes.
void HnswIndex::SerializeTo(std::string* out) const {
  PutU8(out, 'H');
  PutU8(out, static_cast<uint8_t>(storage()));
  PutFixed64(out, static_cast<uint64_t>(dim()));
  PutI32(out, entry_point_);
  PutI32(out, max_level_);
  const Rng::State rng = rng_.state();
  for (int i = 0; i < 4; ++i) PutFixed64(out, rng.s[i]);
  PutU8(out, rng.have_cached_normal ? 1 : 0);
  PutF32(out, rng.cached_normal);
  PutFixed64(out, static_cast<uint64_t>(nodes_.size()));
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const GraphNode& node = nodes_[i];
    PutI32(out, node.external_id);
    PutU8(out, node.deleted ? 1 : 0);
    PutI32(out, node.level);
    rows_.SerializeRow(i, out);
    for (const std::vector<int>& nbs : node.neighbors) {
      PutFixed64(out, static_cast<uint64_t>(nbs.size()));
      for (int nb : nbs) PutI32(out, nb);
    }
  }
}

Status HnswIndex::DeserializeFrom(std::string_view in) {
  ByteReader reader(in);
  uint8_t tag = 0;
  SCCF_RETURN_NOT_OK(reader.ReadU8(&tag));
  if (tag != 'H') return Status::InvalidArgument("not an HNSW index blob");
  uint8_t storage = 0;
  SCCF_RETURN_NOT_OK(reader.ReadU8(&storage));
  if (storage != static_cast<uint8_t>(this->storage())) {
    return Status::InvalidArgument("index blob storage mode mismatch");
  }
  uint64_t dim = 0;
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&dim));
  if (dim != this->dim()) {
    return Status::InvalidArgument("index blob dim mismatch");
  }
  int32_t entry_point = 0, max_level = 0;
  SCCF_RETURN_NOT_OK(reader.ReadI32(&entry_point));
  SCCF_RETURN_NOT_OK(reader.ReadI32(&max_level));
  Rng::State rng;
  for (int i = 0; i < 4; ++i) {
    SCCF_RETURN_NOT_OK(reader.ReadFixed64(&rng.s[i]));
  }
  uint8_t have_cached = 0;
  SCCF_RETURN_NOT_OK(reader.ReadU8(&have_cached));
  rng.have_cached_normal = have_cached != 0;
  SCCF_RETURN_NOT_OK(reader.ReadF32(&rng.cached_normal));

  uint64_t node_count = 0;
  SCCF_RETURN_NOT_OK(reader.ReadFixed64(&node_count));
  // Each node costs at least 13 header bytes; cheap bound against an
  // adversarial count before reserving anything.
  if (node_count > reader.remaining() / 13) {
    return Status::IoError("truncated index blob (node count)");
  }
  const int n = static_cast<int>(node_count);
  if ((entry_point < 0) != (node_count == 0) || entry_point >= n) {
    return Status::InvalidArgument("index blob entry point out of range");
  }

  std::vector<GraphNode> nodes;
  quant::RowStore rows = rows_.EmptyLike();
  std::unordered_map<int, int> live;
  nodes.reserve(static_cast<size_t>(node_count));
  for (int i = 0; i < n; ++i) {
    GraphNode node;
    uint8_t deleted = 0;
    SCCF_RETURN_NOT_OK(reader.ReadI32(&node.external_id));
    SCCF_RETURN_NOT_OK(reader.ReadU8(&deleted));
    node.deleted = deleted != 0;
    SCCF_RETURN_NOT_OK(reader.ReadI32(&node.level));
    if (node.external_id < 0 || node.level < 0 || node.level > max_level) {
      return Status::InvalidArgument("index blob node header out of range");
    }
    SCCF_RETURN_NOT_OK(rows.ReadRow(&reader));
    // Every level costs at least its 8-byte neighbor count: bound the
    // level by the bytes left before allocating its lists.
    if (static_cast<uint64_t>(node.level) + 1 > reader.remaining() / 8) {
      return Status::IoError("truncated index blob (node levels)");
    }
    node.neighbors.resize(static_cast<size_t>(node.level) + 1);
    for (std::vector<int>& nbs : node.neighbors) {
      uint64_t len = 0;
      SCCF_RETURN_NOT_OK(reader.ReadFixed64(&len));
      if (len > reader.remaining() / 4) {
        return Status::IoError("truncated index blob (neighbor list)");
      }
      nbs.reserve(static_cast<size_t>(len));
      for (uint64_t j = 0; j < len; ++j) {
        int32_t nb = 0;
        SCCF_RETURN_NOT_OK(reader.ReadI32(&nb));
        if (nb < 0 || nb >= n) {
          return Status::InvalidArgument("index blob neighbor out of range");
        }
        nbs.push_back(nb);
      }
    }
    if (!node.deleted && !live.emplace(node.external_id, i).second) {
      return Status::InvalidArgument("duplicate live id in index blob");
    }
    nodes.push_back(std::move(node));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes in index blob");
  }
  // Search descends from the entry point at max_level and follows an edge
  // at level l only into nodes that have level l: both hold for every
  // graph Add builds, and a blob that breaks them would index past a
  // node's neighbor lists.
  if (n > 0 && nodes[entry_point].level != max_level) {
    return Status::InvalidArgument("index blob entry point not at max level");
  }
  for (const GraphNode& node : nodes) {
    for (size_t level = 0; level < node.neighbors.size(); ++level) {
      for (int nb : node.neighbors[level]) {
        if (static_cast<size_t>(nodes[nb].level) < level) {
          return Status::InvalidArgument("index blob edge above its target");
        }
      }
    }
  }

  entry_point_ = entry_point;
  max_level_ = max_level;
  rng_.set_state(rng);
  rows_ = std::move(rows);
  nodes_ = std::move(nodes);
  live_ = std::move(live);
  return Status::OK();
}

}  // namespace sccf::index
