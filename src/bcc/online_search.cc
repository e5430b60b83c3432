#include "bcc/online_search.h"

#include "bcc/peel.h"
#include "eval/timer.h"

namespace bccs {

Community PeelToBcc(const LabeledGraph& g, const G0Result& g0, const BccQuery& q,
                    const SearchOptions& opts, std::uint64_t b, SearchStats* stats,
                    QueryWorkspace* ws) {
  if (!g0.found) return Community{};
  // Pair (0, 1) is seeded with Find-G0's Algorithm 3 counts over the same
  // sides, so the peel starts without recounting G0.
  return PeelGroups(g, {q.ql, q.qr}, {g0.left, g0.right}, {g0.k1, g0.k2}, opts, b,
                    &g0.counts, stats, ws);
}

Community BccSearch(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    const SearchOptions& opts, SearchStats* stats, QueryWorkspace* ws) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer total;
  G0Result g0 = FindG0(g, q, p, stats, ws);
  Community out = PeelToBcc(g, g0, q, opts, p.b, stats, ws);
  ReleaseG0Counts(ws, &g0);
  stats->total_seconds += total.Seconds();
  return out;
}

Community OnlineBcc(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    SearchStats* stats, QueryWorkspace* ws) {
  return BccSearch(g, q, p, OnlineBccOptions(), stats, ws);
}

Community LpBcc(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                SearchStats* stats, QueryWorkspace* ws) {
  return BccSearch(g, q, p, LpBccOptions(), stats, ws);
}

}  // namespace bccs
