#ifndef BCCS_BCC_BC_INDEX_H_
#define BCCS_BCC_BC_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "butterfly/block_cache.h"
#include "butterfly/butterfly_counting.h"
#include "core/label_coreness.h"
#include "graph/labeled_graph.h"

namespace bccs {

struct SnapshotBundle;    // graph/snapshot.h
struct SourceGraphInfo;   // graph/snapshot.h
struct GraphDelta;        // graph/graph_delta.h

/// Fallback thresholds of BcIndex::ApplyUpdates. A batch is repaired
/// incrementally per affected label / label pair; a label or pair whose
/// update count exceeds its cap takes the scoped rebuild instead (coreness:
/// SubsetCoreness over the one label group; butterflies: CountButterflies
/// over the one pair) — still far from the full-index rebuild.
struct UpdateRepairOptions {
  /// Max intra-label updates per label repaired by level passes; mixed
  /// insert+delete labels always rebuild (see core/core_maintenance.h).
  std::size_t label_incremental_cap = 8;
  /// Max cross-label updates per pair repaired edge-by-edge.
  std::size_t pair_incremental_cap = 8;
};

/// What BcIndex::ApplyUpdates did, for observability and tests: the
/// coreness table's per-label repair plus the pair cache's.
struct UpdateRepairStats : LabelCorenessRepairStats {
  std::size_t pairs_touched = 0;       // cached pairs with cross updates
  std::size_t pairs_incremental = 0;   // repaired edge-by-edge
  std::size_t pairs_recounted = 0;     // scoped CountButterflies recount
  std::size_t cross_edges_applied = 0;
};

/// The offline butterfly-core index of Section 6.3.
///
/// Holds, for every vertex, its coreness within its own label group (the
/// delta(v) component, a shared LabelCorenessTable) and, per label pair, the
/// butterfly degrees over the full bipartite graph between the two label
/// groups (the chi(v) component).
/// The butterfly component is computed lazily on first use of a label pair
/// and cached, which keeps construction linear for graphs with hundreds of
/// labels while preserving exact per-pair query-time semantics (documented
/// deviation 3 in DESIGN.md).
///
/// The index is share-safe and const-usable: all query entry points are
/// const (the lazy pair cache is logically immutable state behind a sharded
/// block cache), so one index instance — freshly built or reconstructed from
/// a snapshot — can serve every worker thread of a BatchRunner. The coreness
/// table is shared by pointer: the serve engine pins the same table into
/// each query of the index's epoch.
///
/// The pair cache is a ButterflyBlockCache: materialized and snapshot-loaded
/// pairs are pinned (never evicted), while lazily faulted pairs live under
/// an optional byte budget (SetPairCacheBudget) with LRU eviction, so a
/// label-rich graph serving a skewed pair mix has bounded memory. Because
/// blocks can be evicted, PairButterflies returns a shared_ptr pin rather
/// than a raw reference — callers hold the pin for as long as they read the
/// counts.
class BcIndex {
 public:
  explicit BcIndex(const LabeledGraph& g);

  /// Coreness of v within its own label group.
  std::uint32_t Coreness(VertexId v) const { return coreness_->Coreness(v); }

  /// Maximum coreness within a label group.
  std::uint32_t MaxCoreness(Label l) const { return coreness_->MaxCoreness(l); }

  /// The coreness component itself, shared with whoever serves this
  /// index's epoch.
  const std::shared_ptr<const LabelCorenessTable>& coreness_table() const { return coreness_; }

  /// Butterfly degrees over the full bipartite graph between label groups
  /// `a` and `b`. Cached after the first call for the pair. Thread-safe:
  /// concurrent batch queries may fault the same pair in (first insert
  /// wins). The returned shared_ptr pins the block — it stays valid even if
  /// the block cache evicts the pair under byte-budget pressure, so hold it
  /// for the duration of the read.
  std::shared_ptr<const ButterflyCounts> PairButterflies(Label a, Label b) const;

  /// Eagerly faults in every cross-label pair whose two label groups are
  /// both non-empty, pinning each entry (exempt from the byte budget, never
  /// evicted). This is what bccs_build runs before saving a snapshot, so a
  /// loaded index answers every pair without computing butterflies.
  void MaterializeAllPairs();

  /// Number of label pairs currently resident in the cache.
  std::size_t CachedPairCount() const;

  /// Visits every resident pair as (a, b, counts) with a < b, in key order.
  /// Iterates over a pinned snapshot of the entries, so `fn` may call back
  /// into the pair cache and concurrent evictions cannot invalidate the
  /// reference mid-visit.
  void ForEachCachedPair(
      const std::function<void(Label, Label, const ButterflyCounts&)>& fn) const;

  /// Pinned snapshot of every resident pair in sorted key order; the
  /// shared_ptrs keep the blocks alive across later evictions (used by
  /// SaveSnapshot, which may run concurrently with serving).
  std::vector<ButterflyBlockCache::Entry> CachedPairEntries() const;

  /// Byte budget for lazily faulted (unpinned) pair blocks; 0 = unbounded.
  /// Logically configuration, not index state, hence const — safe to call on
  /// a shared serving index. ApplyUpdates carries the budget to the repaired
  /// index.
  void SetPairCacheBudget(std::size_t bytes) const;

  /// Hit/miss/eviction/byte counters of the pair block cache.
  BlockCacheStats PairCacheStats() const;

  /// Loads the snapshot at `path` (graph + index, see graph/snapshot.h); on
  /// any load failure (absent, truncated, corrupt, version mismatch, stale
  /// source-graph stamp) builds a fresh index from `g`, materializes all
  /// pairs, and best-effort saves a new snapshot to `path`. `error`, when
  /// non-null, receives the load failure reason (empty when the snapshot
  /// loaded cleanly).
  ///
  /// The overload taking `source` (the identity of the graph file `g` was
  /// read from) rejects snapshots stamped with a different source graph and
  /// stamps `source` into any snapshot it writes.
  ///
  /// When the snapshot loads, the returned bundle's graph is the snapshot's
  /// own (mapped) graph and `g` is ignored — callers must query through
  /// `bundle.graph`, not `g`.
  static SnapshotBundle BuildOrLoad(const LabeledGraph& g, const std::string& path,
                                    std::string* error = nullptr);
  static SnapshotBundle BuildOrLoad(const LabeledGraph& g, const std::string& path,
                                    std::string* error, const SourceGraphInfo& source);

  /// Incrementally repairs this index for an edge-update batch and returns
  /// the repaired index over `updated`, which must be the result of
  /// ApplyGraphDelta(graph(), delta) (or an equal graph that outlives the
  /// returned index). This index is left untouched — epoch swaps keep the
  /// old index serving in-flight queries while the new one is prepared.
  ///
  /// The repaired index answers every query bit-identically to a freshly
  /// built BcIndex(updated): intra-label updates repair only their label's
  /// coreness (LabelCorenessTable::ApplyUpdates), cross-label updates repair
  /// only their pair's cached butterfly entry (butterfly/butterfly_update.h
  /// per-edge repair, scoped recount past the cap); untouched labels, pairs,
  /// and pairs not yet cached (they fault in lazily against the new graph)
  /// cost nothing beyond the copy.
  std::unique_ptr<BcIndex> ApplyUpdates(const LabeledGraph& updated, const GraphDelta& delta,
                                        const UpdateRepairOptions& opts = {},
                                        UpdateRepairStats* stats = nullptr) const;

  const LabeledGraph& graph() const { return *g_; }

 private:
  friend class SnapshotAccess;  // reconstructs loaded indexes field by field
  friend class ValidateAccess;  // common/validate.h reads raw arrays

  BcIndex() = default;  // snapshot loading only

  const LabeledGraph* g_ = nullptr;
  std::shared_ptr<const LabelCorenessTable> coreness_;
  mutable ButterflyBlockCache pair_cache_;
};

}  // namespace bccs

#endif  // BCCS_BCC_BC_INDEX_H_
