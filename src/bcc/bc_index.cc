#include "bcc/bc_index.h"

#include <algorithm>
#include <map>
#include <utility>

#include "butterfly/butterfly_update.h"
#include "graph/graph_delta.h"

namespace bccs {

BcIndex::BcIndex(const LabeledGraph& g)
    : g_(&g), coreness_(std::make_shared<const LabelCorenessTable>(g)) {}

namespace {

ButterflyCounts ComputePairButterflies(const LabeledGraph& g, Label a, Label b) {
  auto left = g.VerticesWithLabel(a);
  auto right = g.VerticesWithLabel(b);
  std::vector<char> in_left(g.NumVertices(), 0), in_right(g.NumVertices(), 0);
  for (VertexId v : left) in_left[v] = 1;
  for (VertexId v : right) in_right[v] = 1;
  return CountButterflies(g, {left.begin(), left.end()}, {right.begin(), right.end()}, in_left,
                          in_right);
}

}  // namespace

std::shared_ptr<const ButterflyCounts> BcIndex::PairButterflies(Label a, Label b) const {
  if (a > b) std::swap(a, b);
  if (auto hit = pair_cache_.Lookup(a, b)) return hit;

  // Compute outside any lock so cached lookups of other pairs never block
  // behind a cold count; concurrent faults of the same pair waste one
  // recount, and the first insert wins.
  return pair_cache_.Insert(a, b, ComputePairButterflies(*g_, a, b), /*pin=*/false);
}

void BcIndex::MaterializeAllPairs() {
  const std::size_t num_labels = g_->NumLabels();
  for (Label a = 0; a < num_labels; ++a) {
    if (g_->VerticesWithLabel(a).empty()) continue;
    for (Label b = a + 1; b < num_labels; ++b) {
      if (g_->VerticesWithLabel(b).empty()) continue;
      if (auto resident = pair_cache_.Peek(a, b)) {
        // Promote an earlier lazy fault-in to pinned.
        pair_cache_.InsertShared(a, b, std::move(resident), /*pin=*/true);
      } else {
        pair_cache_.Insert(a, b, ComputePairButterflies(*g_, a, b), /*pin=*/true);
      }
    }
  }
}

std::size_t BcIndex::CachedPairCount() const { return pair_cache_.EntryCount(); }

void BcIndex::ForEachCachedPair(
    const std::function<void(Label, Label, const ButterflyCounts&)>& fn) const {
  for (const auto& entry : pair_cache_.Entries()) {
    fn(entry.a, entry.b, *entry.counts);
  }
}

std::vector<ButterflyBlockCache::Entry> BcIndex::CachedPairEntries() const {
  return pair_cache_.Entries();
}

void BcIndex::SetPairCacheBudget(std::size_t bytes) const { pair_cache_.SetBudget(bytes); }

BlockCacheStats BcIndex::PairCacheStats() const { return pair_cache_.Stats(); }

namespace {

/// One label pair's slice of the delta.
struct EdgeBucket {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;
};

/// Per-pair cross-label buckets of the delta (they repair cached
/// butterflies). Intra-label edges are the coreness table's business:
/// coreness is computed within a label group, pair butterflies over cross
/// edges only.
std::map<std::pair<Label, Label>, EdgeBucket> CrossBuckets(const LabeledGraph& g,
                                                            const GraphDelta& delta) {
  std::map<std::pair<Label, Label>, EdgeBucket> cross;
  for (const auto* edges : {&delta.inserts, &delta.deletes}) {
    for (const Edge& e : *edges) {
      const Label a = g.LabelOf(e.u);
      const Label b = g.LabelOf(e.v);
      if (a == b) continue;
      EdgeBucket& bucket = cross[std::minmax(a, b)];
      (edges == &delta.inserts ? bucket.inserts : bucket.deletes).push_back(e);
    }
  }
  return cross;
}

}  // namespace

std::unique_ptr<BcIndex> BcIndex::ApplyUpdates(const LabeledGraph& updated,
                                               const GraphDelta& delta,
                                               const UpdateRepairOptions& opts,
                                               UpdateRepairStats* stats) const {
  UpdateRepairStats local;
  UpdateRepairStats& st = stats != nullptr ? *stats : local;
  st = UpdateRepairStats{};

  std::unique_ptr<BcIndex> out(new BcIndex());
  out->g_ = &updated;
  out->coreness_ =
      coreness_->ApplyUpdates(updated, delta, opts.label_incremental_cap, &st);

  // Pair cache: carry every resident block into the new index's cache, then
  // patch only the touched cached pairs. Untouched blocks are shared by
  // shared_ptr across the two epochs (zero copy); touched blocks are cloned
  // and repaired in the clone so the old index keeps serving in-flight
  // queries bit-identically. Touched pairs that were never cached stay
  // uncached — they fault in lazily against the updated graph on first use.
  // Budget and cumulative counters carry over so stream-level serving stats
  // survive the epoch swap.
  out->pair_cache_.SetBudget(pair_cache_.budget());
  out->pair_cache_.CarryCountersFrom(pair_cache_);
  const auto cross = CrossBuckets(*g_, delta);
  for (const auto& entry : pair_cache_.Entries()) {
    const auto key = std::make_pair(entry.a, entry.b);
    auto it = cross.find(key);
    if (it == cross.end()) {
      out->pair_cache_.InsertShared(entry.a, entry.b, entry.counts, entry.pinned);
      continue;
    }
    ++st.pairs_touched;
    ButterflyCounts patched = *entry.counts;
    const PairButterflyRepair repair = RepairPairButterflies(
        *g_, updated, entry.a, entry.b, it->second.inserts, it->second.deletes,
        opts.pair_incremental_cap, &patched);
    repair.recounted ? ++st.pairs_recounted : ++st.pairs_incremental;
    st.cross_edges_applied += repair.edges_applied;
    out->pair_cache_.Insert(entry.a, entry.b, std::move(patched), entry.pinned);
  }
  return out;
}

}  // namespace bccs
