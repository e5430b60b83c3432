#ifndef BCCS_BCC_MBCC_H_
#define BCCS_BCC_MBCC_H_

#include <cstdint>
#include <vector>

#include "bcc/bcc_types.h"
#include "bcc/workspace.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// Query of the Section 7 multi-labeled BCC model: m >= 2 vertices with
/// pairwise-distinct labels.
struct MbccQuery {
  std::vector<VertexId> vertices;
};

/// Parameters of the mBCC model. `k` is per query group (empty or zero
/// entries mean "auto" = the query's coreness within its label group);
/// `b` is the shared butterfly threshold of Definition 7/8.
struct MbccParams {
  std::vector<std::uint32_t> k;
  std::uint64_t b = 1;
};

/// Paper's Algorithm 9: finds a connected mBCC containing every query with a
/// small diameter by greedy farthest-vertex peeling. Group cores are
/// maintained per label; cross-group connectivity (Definition 7) is tracked
/// over the label meta-graph with union-find; leader pairs are maintained per
/// label pair with Algorithms 6 and 7 when opts.use_leader_pair is set.
/// For m = 2 the model (and the result) coincides with the two-label BCC.
///
/// When `restrict_to` is non-null, the whole search is confined to the
/// enabled vertices (used by the L2P local extension); auto core parameters
/// then resolve within the restriction.
///
/// After the per-group cores, the search is PeelGroups (peel.h), which
/// counts every label pair and peels; pass a warm `ws` for allocation-free
/// steady-state execution, or nullptr for a scoped one.
Community MbccSearch(const LabeledGraph& g, const MbccQuery& q, const MbccParams& p,
                     const SearchOptions& opts, SearchStats* stats = nullptr,
                     const std::vector<char>* restrict_to = nullptr,
                     QueryWorkspace* ws = nullptr);

/// The resolved per-group core parameters (auto entries replaced by query
/// coreness). Exposed for verification in tests and benchmarks. `ws`
/// (optional) supplies the coreness scratch for allocation-free resolution.
std::vector<std::uint32_t> ResolveMbccCores(const LabeledGraph& g, const MbccQuery& q,
                                            const MbccParams& p,
                                            QueryWorkspace* ws = nullptr);

}  // namespace bccs

#endif  // BCCS_BCC_MBCC_H_
