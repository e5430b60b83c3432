#include "core/label_coreness.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/core_maintenance.h"
#include "graph/graph_delta.h"

namespace bccs {
namespace {

std::vector<std::uint32_t> MaxPerLabel(const LabeledGraph& g,
                                       std::span<const std::uint32_t> coreness) {
  std::vector<std::uint32_t> best(g.NumLabels(), 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    best[g.LabelOf(v)] = std::max(best[g.LabelOf(v)], coreness[v]);
  }
  return best;
}

}  // namespace

LabelCorenessTable::LabelCorenessTable(const LabeledGraph& g) {
  std::vector<std::uint32_t> coreness = LabelCoreness(g);
  max_per_label_ = MaxPerLabel(g, coreness);
  coreness_ = std::move(coreness);
}

std::shared_ptr<const LabelCorenessTable> LabelCorenessTable::ApplyUpdates(
    const LabeledGraph& updated, const GraphDelta& delta, std::size_t label_incremental_cap,
    LabelCorenessRepairStats* stats) const {
  LabelCorenessRepairStats local;
  LabelCorenessRepairStats& st = stats != nullptr ? *stats : local;

  // Intra-label updates, per label (labels never change across edge
  // updates, so the updated graph's labeling is the base's).
  struct EdgeBucket {
    std::vector<Edge> inserts;
    std::vector<Edge> deletes;
  };
  std::map<Label, EdgeBucket> intra;
  for (const auto* edges : {&delta.inserts, &delta.deletes}) {
    for (const Edge& e : *edges) {
      const Label l = updated.LabelOf(e.u);
      if (l != updated.LabelOf(e.v)) continue;
      EdgeBucket& bucket = intra[l];
      (edges == &delta.inserts ? bucket.inserts : bucket.deletes).push_back(e);
    }
  }

  // Copy, then patch only the touched labels.
  std::vector<std::uint32_t> coreness(coreness_.begin(), coreness_.end());
  std::vector<std::uint32_t> max_core(max_per_label_.begin(), max_per_label_.end());
  for (const auto& [label, bucket] : intra) {
    ++st.labels_touched;
    const auto members = updated.VerticesWithLabel(label);
    const LabelCorenessRepair repair = RepairLabelCoreness(
        updated, members, bucket.inserts, bucket.deletes, label_incremental_cap, &coreness);
    repair.rebuilt ? ++st.labels_rebuilt : ++st.labels_incremental;
    st.core_passes += repair.passes;
    std::uint32_t best = 0;
    for (VertexId v : members) best = std::max(best, coreness[v]);
    max_core[label] = best;
  }
  return std::make_shared<const LabelCorenessTable>(std::move(coreness), std::move(max_core));
}

void LabelCoreComponent(const LabeledGraph& g, const LabelCorenessTable& table, VertexId q,
                        std::uint32_t k, CoreScratch* scratch, std::vector<VertexId>* out) {
  out->clear();
  if (table.Coreness(q) < k) return;
  scratch->EnsureSize(g.NumVertices());
  std::vector<char>& seen = scratch->mask;
  const Label label = g.LabelOf(q);
  seen[q] = 1;
  out->push_back(q);
  for (std::size_t head = 0; head < out->size(); ++head) {
    for (VertexId w : g.Neighbors((*out)[head])) {
      if (seen[w] || g.LabelOf(w) != label || table.Coreness(w) < k) continue;
      seen[w] = 1;
      out->push_back(w);
    }
  }
  for (VertexId v : *out) seen[v] = 0;
  std::sort(out->begin(), out->end());
}

}  // namespace bccs
