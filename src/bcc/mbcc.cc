#include "bcc/mbcc.h"

#include <memory>

#include "bcc/find_g0.h"
#include "bcc/peel.h"
#include "eval/timer.h"

namespace bccs {

std::vector<std::uint32_t> ResolveMbccCores(const LabeledGraph& g, const MbccQuery& q,
                                            const MbccParams& p, QueryWorkspace* ws) {
  std::unique_ptr<QueryWorkspace> scoped_ws;
  if (ws == nullptr) {
    scoped_ws = std::make_unique<QueryWorkspace>();
    ws = scoped_ws.get();
  }
  const std::size_t m = q.vertices.size();
  std::vector<std::uint32_t> ks(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    ks[i] = ResolveSideCore(g, q.vertices[i], i < p.k.size() ? p.k[i] : 0, nullptr, ws);
  }
  return ks;
}

Community MbccSearch(const LabeledGraph& g, const MbccQuery& q, const MbccParams& p,
                     const SearchOptions& opts, SearchStats* stats,
                     const std::vector<char>* restrict_to, QueryWorkspace* ws) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer total;

  const std::size_t m = q.vertices.size();
  if (m < 2) return {};
  for (VertexId v : q.vertices) {
    if (v >= g.NumVertices()) return {};
    if (restrict_to != nullptr && !(*restrict_to)[v]) return {};
  }
  // Labels must be pairwise distinct.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      if (g.LabelOf(q.vertices[i]) == g.LabelOf(q.vertices[j])) return {};
    }
  }

  std::unique_ptr<QueryWorkspace> scoped_ws;
  if (ws == nullptr) {
    scoped_ws = std::make_unique<QueryWorkspace>();
    ws = scoped_ws.get();
  }

  // --- Find G0 (Algorithm 9 line 1): per-group k_i-core components
  // (find_g0.h: from the pinned epoch table when unrestricted). ---
  std::vector<std::vector<VertexId>> groups(m);
  std::vector<std::uint32_t> ks(m, 0);
  bool dead_end = false;
  {
    ScopedAccumulator t(&stats->find_g0_seconds);
    for (std::size_t i = 0; i < m && !dead_end; ++i) {
      const VertexId qi = q.vertices[i];
      ks[i] = ResolveSideCore(g, qi, i < p.k.size() ? p.k[i] : 0, restrict_to, ws);
      if (ks[i] > 0) SideCoreComponent(g, qi, ks[i], restrict_to, ws, &groups[i]);
      dead_end = groups[i].empty();
    }
  }
  // Algorithm 9 from line 2: the peel counts every label pair, then peels.
  Community out = dead_end ? Community{}
                           : PeelGroups(g, q.vertices, std::move(groups), std::move(ks),
                                        opts, p.b, nullptr, stats, ws);
  stats->total_seconds += total.Seconds();
  return out;
}

}  // namespace bccs
