#ifndef BCCS_BCC_QUERY_DISTANCE_H_
#define BCCS_BCC_QUERY_DISTANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bcc/workspace.h"  // kInfDistance, DistanceMap
#include "graph/labeled_graph.h"

namespace bccs {

/// Full BFS from `source` over the subgraph induced by `alive`. `dist` is
/// resized to the graph and filled with hop counts (kInfDistance where
/// unreachable or dead).
void BfsDistances(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                  std::vector<std::uint32_t>* dist);

/// Workspace variant: starts a fresh epoch on `dm` and fills it with the
/// same distances. Costs O(edges of the reached vertices); no O(n) work
/// once the map has been sized.
void BfsDistances(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                  DistanceMap* dm);

/// Repairs `dm` (distances to one source) after the vertices in `removed`
/// were deleted: a decremental BFS that touches only the vertices whose
/// distance may change. `alive` must already reflect the deletion; `dm` must
/// hold the pre-deletion distances, the removed vertices' included, and
/// every earlier deletion must have gone through this repair.
///
/// Support rule: an alive vertex at distance d > 0 keeps d iff it has an
/// alive neighbour at d-1 that kept its own distance. Phase 1 applies the
/// rule level by level, starting from the removed vertices' children and
/// stopping each neighbour scan at the first support; a vertex without
/// support is dropped, and its children become candidates. Phase 2 re-reaches
/// the dropped set with a bucket queue seeded from the kept neighbours;
/// dropped vertices it cannot reach become kInfDistance.
///
/// `changed` (cleared first) is exactly the dropped set: every alive vertex
/// whose distance changed, each once, and no other vertex. The removed
/// vertices become kInfDistance and are not reported.
///
/// Cost: O(degrees of the removed, candidate and dropped vertices), plus
/// O(1) per distance level spanned. The paper's Algorithm 5 instead resets
/// and re-reaches every vertex deeper than the shallowest removed one; both
/// compute the BFS distances of the surviving graph, so answers are the same.
void UpdateDistancesAfterDeletion(const LabeledGraph& g, const std::vector<char>& alive,
                                  std::span<const VertexId> removed, DistanceMap* dm,
                                  std::vector<VertexId>* changed);

}  // namespace bccs

#endif  // BCCS_BCC_QUERY_DISTANCE_H_
