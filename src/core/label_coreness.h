#ifndef BCCS_CORE_LABEL_CORENESS_H_
#define BCCS_CORE_LABEL_CORENESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/labeled_graph.h"

namespace bccs {

struct GraphDelta;  // graph/graph_delta.h

/// What LabelCorenessTable::ApplyUpdates did, per label.
struct LabelCorenessRepairStats {
  std::size_t labels_touched = 0;      // labels with intra-label updates
  std::size_t labels_incremental = 0;  // repaired by level passes
  std::size_t labels_rebuilt = 0;      // scoped SubsetCoreness rebuild
  std::size_t core_passes = 0;         // level passes across all labels
};

/// Per-vertex coreness within its own label group (the paper's delta(v),
/// Section 6.3) and the per-label maximum: a fact about the graph, not
/// about any query, so one table serves every query of an epoch.
///
/// The k-core of a label group is exactly its members with coreness >= k,
/// which is what lets Find-G0 replace two bucket peels per side with one
/// BFS (LabelCoreComponent). BcIndex holds one as its coreness component;
/// the serve engine carries one in every epoch, with or without an index.
///
/// Both arrays live in ArrayRef storage, so a snapshot load keeps them as
/// zero-copy views over the mapped file. Immutable once built: an update
/// batch produces a repaired copy (ApplyUpdates).
class LabelCorenessTable {
 public:
  /// Builds the table for `g` with one LabelCoreness pass.
  explicit LabelCorenessTable(const LabeledGraph& g);

  /// Wraps existing arrays as they are (snapshot views, validator seams);
  /// nothing is checked — ValidateLabelCoreness audits a table.
  LabelCorenessTable(ArrayRef<std::uint32_t> coreness, ArrayRef<std::uint32_t> max_per_label)
      : coreness_(std::move(coreness)), max_per_label_(std::move(max_per_label)) {}

  std::uint32_t Coreness(VertexId v) const { return coreness_[v]; }
  std::uint32_t MaxCoreness(Label l) const { return max_per_label_[l]; }

  /// Raw arrays: one entry per vertex, one per label.
  std::span<const std::uint32_t> coreness() const { return coreness_.span(); }
  std::span<const std::uint32_t> max_per_label() const { return max_per_label_.span(); }

  /// The table of `updated`, which must be ApplyGraphDelta(base, delta) for
  /// the graph `base` this table describes. Only labels with intra-label
  /// updates are repaired (RepairLabelCoreness: level passes up to
  /// `label_incremental_cap` updates per label, a scoped rebuild past it or
  /// for mixed insert+delete labels); cross-label edges never change
  /// coreness. This table is left untouched, so an older epoch keeps
  /// serving from it.
  std::shared_ptr<const LabelCorenessTable> ApplyUpdates(
      const LabeledGraph& updated, const GraphDelta& delta, std::size_t label_incremental_cap,
      LabelCorenessRepairStats* stats = nullptr) const;

 private:
  ArrayRef<std::uint32_t> coreness_;
  ArrayRef<std::uint32_t> max_per_label_;
};

/// The connected component containing `q` of the k-core of q's label group,
/// sorted ascending: one BFS from `q` over {same label, coreness >= k}.
/// Empty when q's coreness is below k. Identical to
/// ComponentContaining(KCoreOfSubset(group, k), q) on the graph `table`
/// describes. `scratch->mask` marks visited vertices and is left all-zero.
void LabelCoreComponent(const LabeledGraph& g, const LabelCorenessTable& table, VertexId q,
                        std::uint32_t k, CoreScratch* scratch, std::vector<VertexId>* out);

}  // namespace bccs

#endif  // BCCS_CORE_LABEL_CORENESS_H_
