#ifndef BCCS_BCC_FIND_G0_H_
#define BCCS_BCC_FIND_G0_H_

#include <cstdint>
#include <vector>

#include "bcc/bcc_types.h"
#include "bcc/workspace.h"
#include "butterfly/butterfly_counting.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// Result of the paper's Algorithm 2: the maximal connected (k1, k2, b)-BCC
/// G0 containing the query pair.
struct G0Result {
  bool found = false;
  /// Members of the left k1-core component containing q_l, sorted.
  std::vector<VertexId> left;
  /// Members of the right k2-core component containing q_r, sorted.
  std::vector<VertexId> right;
  /// Butterfly degrees over B(left, right), from the Algorithm 3 run.
  ButterflyCounts counts;
  /// Resolved core parameters (auto parameters replaced by query coreness).
  std::uint32_t k1 = 0;
  std::uint32_t k2 = 0;
};

/// Algorithm 2: per side, the connected component containing the query
/// vertex of its label group's k-core (k resolved to the query's coreness
/// within its group when the parameter is 0, paper Section 3.5), then the
/// butterfly check (Algorithm 3) over the cross edges between the two
/// sides. Increments stats->butterfly_counting_calls; accumulates the core
/// phase into stats->find_g0_seconds and the Algorithm 3 run into
/// stats->butterfly_seconds only, so the two timers never overlap. `stats`
/// may be null.
///
/// Where k-core membership comes from:
///   - **Epoch table (the served path).** When the workspace has a
///     LabelCorenessTable pinned (the serve engine pins its epoch's table
///     for every query), automatic k is the table's coreness of the query
///     vertex and each side is one BFS from it over {same label, table
///     coreness >= k} (LabelCoreComponent): the k-core of a group is exactly
///     its members with coreness >= k, so no peel runs per query.
///   - **Scoped peel (everything else).** With no table pinned (direct
///     library calls: tests, tools, offline oracles) each side runs a
///     bucket peel for automatic k (SubsetCorenessOfScoped) and another for
///     the k-core (KCoreOfSubsetScoped) before the component BFS. The two
///     sources give identical sides; the serve-engine identity tests assert
///     it.
///
/// Both produce sides sorted ascending.
///
/// With a workspace, the core/component/butterfly scratch comes from its
/// pools and `counts.chi` of the result is a pooled buffer — the caller
/// must hand the finished result to ReleaseG0Counts(ws, &g0) (results are
/// identical with or without a workspace).
G0Result FindG0(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                SearchStats* stats, QueryWorkspace* ws = nullptr);

/// Algorithm 2 restricted to the vertices enabled in `restrict_to` (the L2P
/// local candidate G_t). Pass null for no restriction. A restricted search
/// always takes the scoped peel, even with a table pinned: coreness inside
/// the candidate is not the label coreness (the candidate drops
/// neighbours), so neither automatic k nor k-core membership can be read
/// from the table.
G0Result FindG0Restricted(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                          const std::vector<char>* restrict_to, SearchStats* stats,
                          QueryWorkspace* ws = nullptr);

/// One side's core parameter: `k` when nonzero, else the coreness of `q`
/// within its label group (intersected with `restrict_to` when non-null).
/// Reads the workspace's pinned table when unrestricted, else peels. 0 means
/// q has no usable core. `ws` must not be null. MbccSearch and
/// ResolveMbccCores resolve each group through this too.
std::uint32_t ResolveSideCore(const LabeledGraph& g, VertexId q, std::uint32_t k,
                              const std::vector<char>* restrict_to, QueryWorkspace* ws);

/// One side of G0: the component containing `q` of the k-core of q's label
/// group (intersected with `restrict_to` when non-null), sorted ascending
/// into `out`; empty when q is outside that k-core. One BFS over the pinned
/// table when unrestricted, else a scoped k-core peel plus the component
/// BFS. `ws` must not be null.
void SideCoreComponent(const LabeledGraph& g, VertexId q, std::uint32_t k,
                       const std::vector<char>* restrict_to, QueryWorkspace* ws,
                       std::vector<VertexId>* out);

/// Returns a workspace-pooled `g0->counts.chi` buffer to the pool (no-op for
/// results produced without a workspace). `g0->left` / `g0->right` must
/// still describe the counted members.
void ReleaseG0Counts(QueryWorkspace* ws, G0Result* g0);

}  // namespace bccs

#endif  // BCCS_BCC_FIND_G0_H_
