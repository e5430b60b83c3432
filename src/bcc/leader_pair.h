#ifndef BCCS_BCC_LEADER_PAIR_H_
#define BCCS_BCC_LEADER_PAIR_H_

#include <cstdint>
#include <vector>

#include "bcc/workspace.h"
#include "butterfly/butterfly_counting.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// Leader search radius rho of Algorithm 6, used by every leader-pair search.
inline constexpr std::uint32_t kLeaderRho = 2;

/// One side's leader: a vertex expected to keep a large butterfly degree
/// through many peeling rounds (paper Observations 1 and 2).
struct LeaderState {
  VertexId leader = kInvalidVertex;
  std::uint64_t chi = 0;
};

/// Paper's Algorithm 6 on one side graph.
///
/// `side_mask` marks the alive members of the side (the graph "L or R");
/// distances are measured inside that induced subgraph. `side_max` /
/// `side_argmax` are the side's maximum butterfly degree and its vertex
/// (from the latest Algorithm 3 run). Searches thresholds b_p = side_max/2,
/// /4, ... >= b within rho hops of `q`; if the scan fails, returns the
/// side's argmax vertex, which is guaranteed to satisfy chi >= b whenever
/// the side satisfies the BCC butterfly condition.
/// `ws` (optional) supplies the visited-mask scratch so repeated calls stay
/// free of O(n) allocations; results are identical either way.
LeaderState IdentifyLeader(const LabeledGraph& g, const std::vector<char>& side_mask,
                           VertexId q, std::uint32_t rho, std::uint64_t b,
                           const ButterflyCounts& counts, std::uint64_t side_max,
                           VertexId side_argmax, QueryWorkspace* ws = nullptr);

}  // namespace bccs

#endif  // BCCS_BCC_LEADER_PAIR_H_
