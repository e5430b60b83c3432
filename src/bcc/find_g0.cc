#include "bcc/find_g0.h"

#include <algorithm>
#include <memory>

#include "core/core_decomposition.h"
#include "core/label_coreness.h"
#include "eval/timer.h"

namespace bccs {
namespace {

// Vertices of `q`'s label group enabled in `restrict_to`, into a pooled
// scratch vector.
std::span<const VertexId> RestrictedGroup(const LabeledGraph& g, VertexId q,
                                          const std::vector<char>& restrict_to,
                                          std::vector<VertexId>* scratch) {
  scratch->clear();
  for (VertexId v : g.VerticesWithLabel(g.LabelOf(q))) {
    if (restrict_to[v]) scratch->push_back(v);
  }
  return *scratch;
}

}  // namespace

std::uint32_t ResolveSideCore(const LabeledGraph& g, VertexId q, std::uint32_t k,
                              const std::vector<char>* restrict_to, QueryWorkspace* ws) {
  if (k > 0) return k;
  if (restrict_to == nullptr) {
    if (const LabelCorenessTable* table = ws->label_coreness()) return table->Coreness(q);
    return SubsetCorenessOfScoped(g, g.VerticesWithLabel(g.LabelOf(q)), q,
                                  &ws->core_scratch());
  }
  std::vector<VertexId>* scratch = ws->AcquireIdVec();
  const std::uint32_t core = SubsetCorenessOfScoped(
      g, RestrictedGroup(g, q, *restrict_to, scratch), q, &ws->core_scratch());
  ws->ReleaseIdVec(scratch);
  return core;
}

void SideCoreComponent(const LabeledGraph& g, VertexId q, std::uint32_t k,
                       const std::vector<char>* restrict_to, QueryWorkspace* ws,
                       std::vector<VertexId>* out) {
  CoreScratch& cs = ws->core_scratch();
  if (restrict_to == nullptr) {
    if (const LabelCorenessTable* table = ws->label_coreness()) {
      LabelCoreComponent(g, *table, q, k, &cs, out);
      return;
    }
  }
  std::vector<VertexId>* scratch = ws->AcquireIdVec();
  std::vector<VertexId>* core = ws->AcquireIdVec();
  const std::span<const VertexId> group =
      restrict_to == nullptr ? g.VerticesWithLabel(g.LabelOf(q))
                             : RestrictedGroup(g, q, *restrict_to, scratch);
  KCoreOfSubsetScoped(g, group, k, &cs, core);
  ComponentContainingScoped(g, *core, q, &cs, out);
  ws->ReleaseIdVec(core);
  ws->ReleaseIdVec(scratch);
}

G0Result FindG0Restricted(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                          const std::vector<char>* restrict_to, SearchStats* stats,
                          QueryWorkspace* ws) {
  SearchStats local;
  if (stats == nullptr) stats = &local;
  G0Result out;
  if (q.ql >= g.NumVertices() || q.qr >= g.NumVertices()) return out;
  if (g.LabelOf(q.ql) == g.LabelOf(q.qr)) return out;

  // Without a caller workspace, run on a scoped one (same engine, cold
  // cost comparable to the old per-call allocations). The chi buffer it
  // pools into out.counts is simply owned by the result afterwards —
  // ReleaseG0Counts with a null ws is a no-op.
  std::unique_ptr<QueryWorkspace> scoped_ws;
  QueryWorkspace* active_ws = ws;
  if (active_ws == nullptr) {
    scoped_ws = std::make_unique<QueryWorkspace>();
    active_ws = scoped_ws.get();
  }

  {
    // The core phase is billed to find_g0_seconds, the butterfly check
    // below to butterfly_seconds only, so the two never overlap.
    ScopedAccumulator t(&stats->find_g0_seconds);
    // Resolve auto core parameters with the query coreness inside its group
    // (paper Section 3.5).
    out.k1 = ResolveSideCore(g, q.ql, p.k1, restrict_to, active_ws);
    out.k2 = ResolveSideCore(g, q.qr, p.k2, restrict_to, active_ws);
    if (out.k1 == 0 || out.k2 == 0) return out;  // queries have no usable core

    // Left and right cores, restricted to the component containing the query.
    SideCoreComponent(g, q.ql, out.k1, restrict_to, active_ws, &out.left);
    if (!out.left.empty()) {
      SideCoreComponent(g, q.qr, out.k2, restrict_to, active_ws, &out.right);
    }
    if (out.left.empty() || out.right.empty()) {
      out.left.clear();
      out.right.clear();
      return out;
    }
  }

  // Butterfly check over B = cross edges between the two cores.
  {
    std::vector<char> in_left = active_ws->CharPool().Acquire(g.NumVertices());
    std::vector<char> in_right = active_ws->CharPool().Acquire(g.NumVertices());
    for (VertexId v : out.left) in_left[v] = 1;
    for (VertexId v : out.right) in_right[v] = 1;
    out.counts.chi = active_ws->U64ZeroPool().Acquire(g.NumVertices());
    {
      ScopedAccumulator t(&stats->butterfly_seconds);
      CountButterfliesInto(g, out.left, out.right, in_left, in_right, active_ws, &out.counts);
    }
    active_ws->CharPool().Release(std::move(in_left), out.left);
    active_ws->CharPool().Release(std::move(in_right), out.right);
  }
  ++stats->butterfly_counting_calls;
  if (out.counts.max_left < p.b || out.counts.max_right < p.b) return out;

  out.found = true;
  return out;
}

G0Result FindG0(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                SearchStats* stats, QueryWorkspace* ws) {
  return FindG0Restricted(g, q, p, nullptr, stats, ws);
}

void ReleaseG0Counts(QueryWorkspace* ws, G0Result* g0) {
  if (ws == nullptr || g0->counts.chi.empty()) return;
  std::vector<std::uint64_t> chi = std::move(g0->counts.chi);
  g0->counts.chi.clear();
  for (VertexId v : g0->left) chi[v] = 0;
  for (VertexId v : g0->right) chi[v] = 0;
  ws->U64ZeroPool().ReleaseClean(std::move(chi));
}

}  // namespace bccs
