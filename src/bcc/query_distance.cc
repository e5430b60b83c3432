#include "bcc/query_distance.h"

#include <algorithm>

#include "common/check.h"

namespace bccs {

void BfsDistances(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                  std::vector<std::uint32_t>* dist) {
  dist->assign(g.NumVertices(), kInfDistance);
  if (source >= g.NumVertices() || !alive[source]) return;
  std::vector<VertexId> frontier = {source};
  (*dist)[source] = 0;
  std::uint32_t level = 0;
  std::vector<VertexId> next;
  while (!frontier.empty()) {
    next.clear();
    ++level;
    for (VertexId v : frontier) {
      for (VertexId w : g.Neighbors(v)) {
        if (!alive[w] || (*dist)[w] != kInfDistance) continue;
        (*dist)[w] = level;
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
}

void BfsDistances(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                  DistanceMap* dm) {
  dm->Reset(g.NumVertices());
  if (source >= g.NumVertices() || !alive[source]) return;
  dm->Set(source, 0);
  dm->Worklist(0).push_back(source);
  for (std::uint32_t d = 0;; ++d) {
    std::vector<VertexId>& next = dm->Worklist(d + 1);
    std::vector<VertexId>& frontier = dm->Worklist(d);
    if (frontier.empty()) break;
    for (VertexId v : frontier) {
      for (VertexId w : g.Neighbors(v)) {
        if (!alive[w] || dm->Get(w) != kInfDistance) continue;
        dm->Set(w, d + 1);
        next.push_back(w);
      }
    }
    frontier.clear();
  }
}

void UpdateDistancesAfterDeletion(const LabeledGraph& g, const std::vector<char>& alive,
                                  std::span<const VertexId> removed, DistanceMap* dm,
                                  std::vector<VertexId>* changed) {
  changed->clear();
  std::vector<char>& candidate = dm->Marks();

  // Seeds: the alive children of each removed vertex, read while the removed
  // vertices still carry their distances. `candidate` keeps each vertex in
  // the worklists at most once. Every scan tests the compact `alive` mask
  // before the distance: most neighbours of a cascade are dead.
  std::uint32_t lo = kInfDistance;
  std::uint32_t hi = 0;
  for (VertexId v : removed) {
    const std::uint32_t d = dm->Get(v);
    if (d == kInfDistance) continue;
    for (VertexId w : g.Neighbors(v)) {
      if (!alive[w] || dm->Get(w) != d + 1 || candidate[w]) continue;
      candidate[w] = 1;
      dm->Worklist(d + 1).push_back(w);
      lo = std::min(lo, d + 1);
      hi = std::max(hi, d + 1);
    }
  }
  for (VertexId v : removed) dm->SetUnreachable(v);

  // Phase 1, by ascending level: a candidate at level d keeps d iff some
  // alive neighbour still sits at d-1. Dropped vertices read as unreachable
  // from here on, so they support no one, and their children at d+1 become
  // candidates.
  for (std::uint32_t d = lo; d <= hi; ++d) {
    std::vector<VertexId>& next = dm->Worklist(d + 1);
    std::vector<VertexId>& level = dm->Worklist(d);
    for (VertexId w : level) {
      candidate[w] = 0;
      bool supported = false;
      for (VertexId u : g.Neighbors(w)) {
        if (alive[u] && dm->Get(u) == d - 1) {
          supported = true;
          break;
        }
      }
      if (supported) continue;
      dm->SetUnreachable(w);
      changed->push_back(w);
      for (VertexId x : g.Neighbors(w)) {
        if (!alive[x] || dm->Get(x) != d + 1 || candidate[x]) continue;
        candidate[x] = 1;
        next.push_back(x);
        hi = std::max(hi, d + 1);
      }
    }
    level.clear();
  }

  // Phase 2: re-reach the dropped set. Each dropped vertex starts at 1 + its
  // nearest reachable neighbour (an upper bound on its new distance), then
  // a bucket queue settles the dropped set level by level. Kept vertices
  // hold final distances and no alive vertex outside the dropped set can be
  // improved, so only dropped vertices ever enter the queue.
  lo = kInfDistance;
  hi = 0;
  for (VertexId v : *changed) {
    std::uint32_t best = kInfDistance;
    for (VertexId u : g.Neighbors(v)) {
      if (alive[u]) best = std::min(best, dm->Get(u));
    }
    if (best == kInfDistance) continue;
    dm->Set(v, best + 1);
    dm->Worklist(best + 1).push_back(v);
    lo = std::min(lo, best + 1);
    hi = std::max(hi, best + 1);
  }
  for (std::uint32_t d = lo; d <= hi; ++d) {
    std::vector<VertexId>& next = dm->Worklist(d + 1);
    std::vector<VertexId>& level = dm->Worklist(d);
    for (VertexId v : level) {
      if (dm->Get(v) != d) continue;  // settled lower after it was queued here
      for (VertexId w : g.Neighbors(v)) {
        if (!alive[w] || dm->Get(w) <= d + 1) continue;
        dm->Set(w, d + 1);
        next.push_back(w);
        hi = std::max(hi, d + 1);
      }
    }
    level.clear();
  }
#if BCCS_DCHECK_IS_ON
  for (char c : candidate) BCCS_DCHECK(c == 0) << "repair left a candidate mark set";
#endif
}

}  // namespace bccs
