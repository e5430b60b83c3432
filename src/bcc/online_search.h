#ifndef BCCS_BCC_ONLINE_SEARCH_H_
#define BCCS_BCC_ONLINE_SEARCH_H_

#include "bcc/bcc_types.h"
#include "bcc/find_g0.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// The two-label peel: the m = 2 case of PeelGroups (peel.h, the one
/// greedy peel shared by Online-, LP-, L2P-BCC and mBCC; its header has the
/// option mapping). Group 0 is G0's left side around q.ql, group 1 its
/// right side around q.qr, and pair (0, 1) starts from G0's Algorithm 3
/// counts, so nothing is recounted. Returns the minimum-query-distance
/// intermediate BCC, empty when !g0.found. `b` is the butterfly threshold;
/// `stats` may be null and `ws` may be null (a scoped workspace, identical
/// results). Does not accumulate total_seconds (callers own end-to-end
/// timing).
Community PeelToBcc(const LabeledGraph& g, const G0Result& g0, const BccQuery& q,
                    const SearchOptions& opts, std::uint64_t b, SearchStats* stats,
                    QueryWorkspace* ws = nullptr);

/// Full search: Find-G0 then peel. Respects every option combination.
Community BccSearch(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    const SearchOptions& opts, SearchStats* stats,
                    QueryWorkspace* ws = nullptr);

/// Paper's Online-BCC: bulk deletion, full BFS distances, and every
/// member's chi kept by the delta counter (a full recount only when stale).
Community OnlineBcc(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    SearchStats* stats = nullptr, QueryWorkspace* ws = nullptr);

/// Paper's LP-BCC: Online-BCC plus fast query distance (Algorithm 5) and the
/// leader-pair strategy (Algorithms 6 and 7).
Community LpBcc(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                SearchStats* stats = nullptr, QueryWorkspace* ws = nullptr);

}  // namespace bccs

#endif  // BCCS_BCC_ONLINE_SEARCH_H_
