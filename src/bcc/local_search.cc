#include "bcc/local_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "bcc/find_g0.h"
#include "bcc/online_search.h"
#include "core/core_decomposition.h"
#include "eval/timer.h"

namespace bccs {
namespace {

struct HeapEntry {
  double cost;
  VertexId vertex;
  bool operator>(const HeapEntry& o) const { return cost > o.cost; }
};

}  // namespace

std::vector<VertexId> ButterflyCorePath(const LabeledGraph& g, const BcIndex& index,
                                        const BccQuery& q, double gamma1, double gamma2,
                                        QueryWorkspace* ws) {
  const Label al = g.LabelOf(q.ql), ar = g.LabelOf(q.qr);
  if (al == ar) return {};
  const auto pair_pin = index.PairButterflies(al, ar);
  const ButterflyCounts& pair = *pair_pin;
  const double dmax = std::max<std::uint32_t>(
      1, std::max(index.MaxCoreness(al), index.MaxCoreness(ar)));
  const double xmax = std::max<std::uint64_t>(1, std::max(pair.max_left, pair.max_right));

  auto entry_cost = [&](VertexId v) {
    double core_shortfall = (dmax - index.Coreness(v)) / dmax;
    double chi_shortfall = (xmax - static_cast<double>(pair.chi[v])) / xmax;
    return 1.0 + gamma1 * core_shortfall + gamma2 * chi_shortfall;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = g.NumVertices();
  // Pooled (default +inf / kInvalidVertex) when a workspace is supplied;
  // `reached` records every entry written so release is O(touched).
  std::vector<double> cost =
      ws != nullptr ? ws->DoubleInfPool().Acquire(n) : std::vector<double>(n, kInf);
  std::vector<VertexId> parent = ws != nullptr
                                     ? ws->U32InfPool().Acquire(n)
                                     : std::vector<VertexId>(n, kInvalidVertex);
  std::vector<VertexId>* reached = ws != nullptr ? ws->AcquireIdVec() : nullptr;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  cost[q.ql] = 0.0;
  if (reached != nullptr) reached->push_back(q.ql);
  heap.push({0.0, q.ql});

  while (!heap.empty()) {
    auto [c, v] = heap.top();
    heap.pop();
    if (c > cost[v]) continue;
    if (v == q.qr) break;
    for (VertexId w : g.Neighbors(v)) {
      Label lw = g.LabelOf(w);
      if (lw != al && lw != ar) continue;
      double nc = c + entry_cost(w);
      if (nc < cost[w]) {
        if (reached != nullptr && cost[w] == kInf) reached->push_back(w);
        cost[w] = nc;
        parent[w] = v;
        heap.push({nc, w});
      }
    }
  }

  std::vector<VertexId> path;
  if (cost[q.qr] != kInf) {
    for (VertexId v = q.qr; v != kInvalidVertex; v = parent[v]) path.push_back(v);
    std::reverse(path.begin(), path.end());
  }
  if (ws != nullptr) {
    ws->DoubleInfPool().Release(std::move(cost), *reached);
    ws->U32InfPool().Release(std::move(parent), *reached);
    ws->ReleaseIdVec(reached);
  }
  return path;
}

double ButterflyCorePathWeight(const LabeledGraph& g, const BcIndex& index,
                               const std::vector<VertexId>& path, double gamma1,
                               double gamma2) {
  if (path.size() < 2) return 0.0;
  const Label al = g.LabelOf(path.front()), ar = g.LabelOf(path.back());
  const auto pair_pin = index.PairButterflies(al, ar);
  const ButterflyCounts& pair = *pair_pin;
  const double dmax = std::max(index.MaxCoreness(al), index.MaxCoreness(ar));
  const double xmax = static_cast<double>(std::max(pair.max_left, pair.max_right));
  std::uint32_t min_core = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t min_chi = std::numeric_limits<std::uint64_t>::max();
  for (VertexId v : path) {
    min_core = std::min(min_core, index.Coreness(v));
    min_chi = std::min(min_chi, pair.chi[v]);
  }
  return static_cast<double>(path.size() - 1) + gamma1 * (dmax - min_core) +
         gamma2 * (xmax - static_cast<double>(min_chi));
}

namespace {

// Bounded admissible-neighborhood expansion shared by L2pBcc and L2pMbcc:
// grows `in_gt` (and `selected_list`) from the seeds until the budget is
// exceeded or the admissible region is exhausted. Returns whether the
// region saturated (budget not exceeded).
template <typename Admissible>
bool ExpandCandidate(const LabeledGraph& g, std::span<const VertexId> seeds, std::size_t eta,
                     Admissible admissible, std::vector<char>* in_gt,
                     std::vector<VertexId>* selected_list) {
  std::size_t selected = 0;
  std::vector<VertexId> frontier;
  for (VertexId v : seeds) {
    if (!(*in_gt)[v]) {
      (*in_gt)[v] = 1;
      selected_list->push_back(v);
      ++selected;
      frontier.push_back(v);
    }
  }
  while (!frontier.empty() && selected <= eta) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      for (VertexId w : g.Neighbors(v)) {
        if ((*in_gt)[w] || !admissible(w)) continue;
        (*in_gt)[w] = 1;
        selected_list->push_back(w);
        ++selected;
        next.push_back(w);
        if (selected > eta) break;
      }
      if (selected > eta) break;
    }
    frontier = std::move(next);
  }
  return selected <= eta;
}

}  // namespace

Community L2pBcc(const LabeledGraph& g, const BcIndex& index, const BccQuery& q,
                 const BccParams& p, const L2pOptions& opts, SearchStats* stats,
                 QueryWorkspace* ws) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer total;
  Community out;
  if (q.ql >= g.NumVertices() || q.qr >= g.NumVertices()) return out;
  const Label al = g.LabelOf(q.ql), ar = g.LabelOf(q.qr);
  if (al == ar) return out;

  // Line 1: weighted shortest path connecting the queries.
  std::vector<VertexId> path = ButterflyCorePath(g, index, q, opts.gamma1, opts.gamma2, ws);
  if (path.empty()) {
    stats->total_seconds += total.Seconds();
    return out;
  }

  // Line 2: per-side expansion coreness thresholds from the path.
  std::uint32_t kl = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t kr = std::numeric_limits<std::uint32_t>::max();
  for (VertexId v : path) {
    if (g.LabelOf(v) == al) kl = std::min(kl, index.Coreness(v));
    if (g.LabelOf(v) == ar) kr = std::min(kr, index.Coreness(v));
  }

  auto admissible = [&](VertexId v) {
    Label l = g.LabelOf(v);
    if (l == al) return index.Coreness(v) >= kl;
    if (l == ar) return index.Coreness(v) >= kr;
    return false;
  };

  // Lines 3-5 with an eta-doubling retry loop: expand, extract the local
  // BCC, and peel with the LP strategies. The retry loop polls the
  // workspace deadline: an expired query neither starts another expansion
  // nor doubles eta — it returns whatever (possibly empty, always valid)
  // community the peel produced before timing out.
  std::size_t eta = opts.eta;
  for (std::size_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
    if (ws != nullptr && ws->deadline().Expired()) {
      stats->timed_out = true;
      break;
    }
    std::vector<char> in_gt = ws != nullptr ? ws->CharPool().Acquire(g.NumVertices())
                                            : std::vector<char>(g.NumVertices(), 0);
    std::vector<VertexId> owned_selected;
    std::vector<VertexId>* selected_list = ws != nullptr ? ws->AcquireIdVec() : &owned_selected;
    // If the BFS drained without hitting the budget, the candidate already
    // contains every admissible vertex reachable from the path.
    const bool saturated = ExpandCandidate(g, path, eta, admissible, &in_gt, selected_list);

    G0Result g0 = FindG0Restricted(g, q, p, &in_gt, stats, ws);
    const bool found = g0.found;
    if (found) out = PeelToBcc(g, g0, q, opts.search, p.b, stats, ws);
    ReleaseG0Counts(ws, &g0);
    if (ws != nullptr) {
      ws->CharPool().Release(std::move(in_gt), *selected_list);
      ws->ReleaseIdVec(selected_list);
    }
    if (found || stats->timed_out) {
      stats->total_seconds += total.Seconds();
      return out;
    }
    if (saturated) break;  // the candidate already held every admissible vertex
    eta *= 2;
  }
  stats->total_seconds += total.Seconds();
  return out;
}

Community L2pMbcc(const LabeledGraph& g, const BcIndex& index, const MbccQuery& q,
                  const MbccParams& p, const L2pOptions& opts, SearchStats* stats,
                  QueryWorkspace* ws) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Community out;  // nested MbccSearch calls own the total_seconds accounting

  const std::size_t m = q.vertices.size();
  if (m < 2) return out;
  for (VertexId v : q.vertices) {
    if (v >= g.NumVertices()) return out;
  }

  // Per-label admission threshold: the group's resolved core parameter.
  std::vector<std::uint32_t> ks = ResolveMbccCores(g, q, p, ws);
  std::vector<std::uint32_t> min_core_for_label(g.NumLabels(), kInvalidVertex);
  for (std::size_t i = 0; i < m; ++i) {
    min_core_for_label[g.LabelOf(q.vertices[i])] = ks[i];
  }
  auto admissible = [&](VertexId v) {
    std::uint32_t need = min_core_for_label[g.LabelOf(v)];
    return need != kInvalidVertex && index.Coreness(v) >= need;
  };

  std::size_t eta = opts.eta;
  for (std::size_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
    if (ws != nullptr && ws->deadline().Expired()) {
      stats->timed_out = true;
      break;
    }
    std::vector<char> in_gt = ws != nullptr ? ws->CharPool().Acquire(g.NumVertices())
                                            : std::vector<char>(g.NumVertices(), 0);
    std::vector<VertexId> owned_selected;
    std::vector<VertexId>* selected_list = ws != nullptr ? ws->AcquireIdVec() : &owned_selected;
    const bool saturated =
        ExpandCandidate(g, q.vertices, eta, admissible, &in_gt, selected_list);

    Community c = MbccSearch(g, q, p, opts.search, stats, &in_gt, ws);
    if (ws != nullptr) {
      ws->CharPool().Release(std::move(in_gt), *selected_list);
      ws->ReleaseIdVec(selected_list);
    }
    if (!c.Empty() || stats->timed_out) return c;
    if (saturated) break;
    eta *= 2;
  }
  return out;
}

}  // namespace bccs
