#ifndef BCCS_BCC_PEEL_H_
#define BCCS_BCC_PEEL_H_

#include <cstdint>
#include <vector>

#include "bcc/bcc_types.h"
#include "bcc/workspace.h"
#include "butterfly/butterfly_counting.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// The one greedy peel (paper's Algorithms 1 and 9 plus the Section 6
/// accelerations) over m >= 2 labeled groups. Group i starts as `groups[i]`
/// (its k_i-core component around `queries[i]`, from Find-G0) and is kept a
/// `ks[i]`-core (Algorithm 4). Every label pair (i, j) whose two sides both
/// reach chi >= b is active; the candidate is a community while the active
/// pairs connect every group (Definition 7; for m = 2, the one pair is the
/// butterfly condition of Definition 4). Each round removes the vertices
/// farthest from the queries and cascades the cores; the answer is the
/// intermediate community with the minimum query distance, a
/// 2-approximation of the minimum-diameter one (Theorem 3).
///
/// Option mapping:
///   - opts.bulk_delete: remove the whole farthest level per round;
///   - opts.fast_query_distance: Algorithm 5 decremental BFS repair;
///   - opts.use_leader_pair: per pair, Algorithms 6 + 7 (two leaders,
///     Algorithm 3 recount when one fails); otherwise a
///     PeelButterflyCounter debits every member's chi per removed vertex
///     and recounts only when stale (DESIGN.md contract 8);
///   - opts.approx: on candidates above the threshold, a pair that needs a
///     recount first tries a sampled estimate. A round is exact unless some
///     pair passed on an estimate alone; an inexact chosen round is
///     re-checked exactly, falling back to the best exact round.
///
/// `seed01`, when non-null, holds exact counts of pair (0, 1) over the
/// initial groups (Find-G0's Algorithm 3 run), so that pair is not counted
/// again; every other pair is counted here. `g0_size` is added only when
/// the initial pairs connect every group. Polls the workspace deadline
/// between initial pair counts and per round (stats->timed_out; the answer
/// is then the best state reached, never an invalid one). `stats` and `ws`
/// may be null; does not accumulate total_seconds. With a warm `ws` a
/// search performs no O(n) allocation.
Community PeelGroups(const LabeledGraph& g, const std::vector<VertexId>& queries,
                     std::vector<std::vector<VertexId>> groups,
                     std::vector<std::uint32_t> ks, const SearchOptions& opts,
                     std::uint64_t b, const ButterflyCounts* seed01, SearchStats* stats,
                     QueryWorkspace* ws);

}  // namespace bccs

#endif  // BCCS_BCC_PEEL_H_
