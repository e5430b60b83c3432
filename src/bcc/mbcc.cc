#include "bcc/mbcc.h"

#include <algorithm>
#include <memory>

#include "bcc/candidate.h"
#include "bcc/find_g0.h"
#include "bcc/leader_pair.h"
#include "bcc/query_distance.h"
#include "butterfly/approx_counting.h"
#include "butterfly/butterfly_counting.h"
#include "butterfly/butterfly_update.h"
#include "butterfly/peel_counter.h"
#include "common/check.h"
#include "eval/timer.h"
#include "graph/union_find.h"

namespace bccs {
namespace {

// State of one label pair (i, j), i < j, and its validity mechanism: the
// pair of leaders (leader-pair methods) or a delta counter (Online). A pair
// is "active" while both sides still have a vertex with chi >= b; inactive
// pairs can never reactivate because deletions only lower butterfly degrees.
struct PairState {
  std::size_t i = 0, j = 0;
  bool active = false;
  LeaderState leader_i, leader_j;
  /// Online only: incremental chi maintenance for this pair's bipartite
  /// subgraph. Owned by the workspace pool; null for leader-pair methods
  /// and for pairs that started inactive.
  PeelButterflyCounter* pc = nullptr;
};

}  // namespace

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
  Community out;

  const std::size_t m = q.vertices.size();
  if (m < 2) return out;
  for (VertexId v : q.vertices) {
    if (v >= g.NumVertices()) return out;
    if (restrict_to != nullptr && !(*restrict_to)[v]) return out;
  }
  // Labels must be pairwise distinct.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      if (g.LabelOf(q.vertices[i]) == g.LabelOf(q.vertices[j])) return out;
    }
  }

  std::unique_ptr<QueryWorkspace> scoped_ws;
  if (ws == nullptr) {
    scoped_ws = std::make_unique<QueryWorkspace>();
    ws = scoped_ws.get();
  }
  const std::size_t n = g.NumVertices();
  const Deadline& deadline = ws->deadline();
  const Deadline* cascade_deadline = deadline.unlimited() ? nullptr : &deadline;

  // --- Find G0 (Algorithm 9 line 1): per-group k_i-core components
  // (find_g0.h: from the pinned epoch table when unrestricted). ---
  std::vector<std::vector<VertexId>> groups(m);
  std::vector<std::uint32_t> ks(m, 0);
  {
    ScopedAccumulator t(&stats->find_g0_seconds);
    bool dead_end = false;
    for (std::size_t i = 0; i < m && !dead_end; ++i) {
      const VertexId qi = q.vertices[i];
      ks[i] = ResolveSideCore(g, qi, i < p.k.size() ? p.k[i] : 0, restrict_to, ws);
      if (ks[i] > 0) SideCoreComponent(g, qi, ks[i], restrict_to, ws, &groups[i]);
      dead_end = groups[i].empty();
    }
    if (dead_end) {
      stats->total_seconds += total.Seconds();
      return out;
    }
  }

  // Phase-boundary deadline check: a query that already expired during
  // Find-G0 skips the candidate build and pairwise counting entirely.
  if (deadline.Expired()) {
    stats->timed_out = true;
    stats->total_seconds += total.Seconds();
    return out;
  }

  GroupedCandidate cand(g, groups, ks, ws);
  stats->g0_size += cand.NumAlive();

  std::vector<VertexId> members;
  for (const auto& grp : groups) members.insert(members.end(), grp.begin(), grp.end());

  // --- Pair states and initial cross-group connectivity. ---
  // One pooled counts buffer serves every per-pair (re)count; chi entries
  // are only ever written for candidate members and scrubbed on release.
  ButterflyCounts counts;
  counts.chi = ws->U64ZeroPool().Acquire(n);
  std::vector<PairState> pairs;
  auto count_pair = [&](std::size_t i, std::size_t j) {
    ScopedAccumulator t(&stats->butterfly_seconds);
    ++stats->butterfly_counting_calls;
    CountButterfliesInto(g, groups[i], groups[j], cand.GroupMask(i), cand.GroupMask(j), ws,
                         &counts);
  };
  auto meta_connected = [&]() {
    UnionFind uf(m);
    for (const PairState& ps : pairs) {
      if (ps.active) uf.Union(static_cast<std::uint32_t>(ps.i), static_cast<std::uint32_t>(ps.j));
    }
    for (std::size_t i = 1; i < m; ++i) {
      if (!uf.Connected(0, static_cast<std::uint32_t>(i))) return false;
    }
    return true;
  };

  auto release_buffers = [&] {
    for (PairState& ps : pairs) {
      if (ps.pc != nullptr) {
        ws->ReleasePeelCounter(ps.pc);
        ps.pc = nullptr;
      }
    }
    ws->U64ZeroPool().Release(std::move(counts.chi), members);
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      // Phase-boundary check: the initial O(m^2) pairwise counts are the
      // most expensive pre-peel step, so an expiring query bails between
      // pairs instead of finishing the whole matrix.
      if (deadline.Expired()) {
        stats->timed_out = true;
        release_buffers();
        stats->total_seconds += total.Seconds();
        return out;
      }
      PairState ps;
      ps.i = i;
      ps.j = j;
      count_pair(i, j);
      ps.active = counts.max_left >= p.b && counts.max_right >= p.b;
      if (ps.active && opts.use_leader_pair) {
        ScopedAccumulator t(&stats->leader_update_seconds);
        ps.leader_i = IdentifyLeader(g, cand.GroupMask(i), q.vertices[i], kLeaderRho, p.b,
                                     counts, counts.max_left, counts.argmax_left, ws);
        ps.leader_j = IdentifyLeader(g, cand.GroupMask(j), q.vertices[j], kLeaderRho, p.b,
                                     counts, counts.max_right, counts.argmax_right, ws);
      } else if (ps.active) {
        // Online: seed this pair's delta counter from the count just
        // computed; from here its chi is debited per removed vertex instead
        // of recounted per round.
        ps.pc = ws->AcquirePeelCounter();
        ps.pc->Init(g, groups[i], groups[j], cand.GroupMask(i), cand.GroupMask(j), ws);
        ps.pc->SeedFrom(counts);
      }
      pairs.push_back(ps);
    }
  }
  if (!meta_connected()) {
    release_buffers();
    stats->total_seconds += total.Seconds();
    return out;
  }

  // --- Query distances (one BFS tree per query vertex). ---
  std::vector<DistanceMap*> dist(m);
  {
    ScopedAccumulator t(&stats->query_distance_seconds);
    for (std::size_t i = 0; i < m; ++i) {
      dist[i] = ws->AcquireDistance();
      BfsDistances(g, cand.alive(), q.vertices[i], dist[i]);
    }
  }
  auto query_distance = [&](VertexId v) {
    std::uint32_t d = 0;
    for (std::size_t i = 0; i < m; ++i) {
      std::uint32_t di = dist[i]->Get(v);
      if (di == kInfDistance) return kInfDistance;
      d = std::max(d, di);
    }
    return d;
  };
  auto queries_connected = [&]() {
    for (std::size_t i = 1; i < m; ++i) {
      if (dist[0]->Get(q.vertices[i]) == kInfDistance) return false;
    }
    return true;
  };

  LeaderButterflyUpdater updater(g, ws->LeaderStamp(n), ws->LeaderStampCounter());
  // removal_round defaults to 0xffffffff = "never removed" (the pool default).
  std::vector<std::uint32_t> removal_round = ws->U32InfPool().Acquire(n);
  std::vector<std::uint32_t> round_qd;
  // round_exact[i]: round i's state was validated exactly (see PeelToBcc).
  std::vector<char> round_exact;
  bool next_round_exact = true;
  bool used_approx = false;

  const ApproxOptions& approx = opts.approx;
  std::vector<VertexId>* estimate_scratch =
      approx.enabled ? ws->AcquireIdVec() : nullptr;

  PeelQueue& queue = ws->peel_queue();
  queue.Reset(n);
  for (VertexId v : members) queue.Update(v, query_distance(v));
  auto is_query = [&](VertexId v) {
    return std::find(q.vertices.begin(), q.vertices.end(), v) != q.vertices.end();
  };

  std::vector<VertexId> batch;
  std::vector<VertexId> changed;

  while (true) {
    if (deadline.Expired()) {
      stats->timed_out = true;
      break;
    }
    std::uint32_t qd = 0;
    if (!queue.PopFarthest(cand.alive(), is_query, &batch, &qd)) break;
    round_qd.push_back(qd);
    round_exact.push_back(next_round_exact ? 1 : 0);
    ++stats->rounds;
    if (batch.empty()) break;
    if (!opts.bulk_delete) {
      std::size_t min_idx = 0;
      for (std::size_t i = 1; i < batch.size(); ++i) {
        if (batch[i] < batch[min_idx]) min_idx = i;
      }
      std::swap(batch[0], batch[min_idx]);
      for (std::size_t i = 1; i < batch.size(); ++i) queue.Requeue(batch[i]);
      batch.resize(1);
    }

    const auto round_idx = static_cast<std::uint32_t>(round_qd.size() - 1);
    bool cascade_expired = false;
    std::vector<VertexId> removed;

    // Pre-round counter upkeep (Online). The per-round debit budget resets
    // here, and any counter is invalidated up front if this round *could*
    // take the sampled-estimate path below: approx_this_round is decided on
    // the post-removal alive count, which never exceeds the pre-removal
    // count, so a counter that is still fresh here implies the round is
    // exact.
    const bool approx_possible = approx.enabled && cand.NumAlive() > approx.threshold;
    for (PairState& ps : pairs) {
      if (ps.pc == nullptr) continue;
      if (approx_possible) ps.pc->MarkStale();
      ps.pc->BeginRound();
    }

    auto pair_loss = [&](PairState& ps, VertexId v) {
      const auto& mask_i = cand.GroupMask(ps.i);
      const auto& mask_j = cand.GroupMask(ps.j);
      if (ps.leader_i.leader != kInvalidVertex && v != ps.leader_i.leader &&
          cand.IsAlive(ps.leader_i.leader)) {
        std::uint64_t loss = updater.LossOnDeletion(mask_i, mask_j, ps.leader_i.leader, v);
        ps.leader_i.chi = loss > ps.leader_i.chi ? 0 : ps.leader_i.chi - loss;
      }
      if (ps.leader_j.leader != kInvalidVertex && v != ps.leader_j.leader &&
          cand.IsAlive(ps.leader_j.leader)) {
        std::uint64_t loss = updater.LossOnDeletion(mask_i, mask_j, ps.leader_j.leader, v);
        ps.leader_j.chi = loss > ps.leader_j.chi ? 0 : ps.leader_j.chi - loss;
      }
    };
    // Per removed vertex, every active pair containing it is debited by its
    // method: Algorithm 7 on the two leaders, or the counter on every chi (a
    // refused debit stales the counter; the validity check then recounts).
    auto on_remove = [&](VertexId v) {
      std::uint32_t gv = cand.GroupOf(v);
      for (PairState& ps : pairs) {
        if (!ps.active || (ps.i != gv && ps.j != gv)) continue;
        if (opts.use_leader_pair) {
          pair_loss(ps, v);
        } else {
          ps.pc->OnRemove(v);
        }
      }
    };
    {
      ScopedAccumulator t(opts.use_leader_pair ? &stats->leader_update_seconds
                                               : &stats->butterfly_delta_seconds);
      removed = cand.RemoveAndMaintain(batch, on_remove, cascade_deadline, &cascade_expired);
    }
    for (VertexId v : removed) removal_round[v] = round_idx;
    stats->vertices_removed += removed.size();
    if (cascade_expired) {
      stats->timed_out = true;
      for (PairState& ps : pairs) {
        if (ps.pc != nullptr) ps.pc->MarkStale();
      }
      break;
    }

    bool query_dead = false;
    for (VertexId v : q.vertices) query_dead |= !cand.IsAlive(v);
    if (query_dead) break;

    // Butterfly / cross-group-connectivity maintenance. With the approx
    // fast path and a still-huge candidate, a per-pair sampled estimate
    // replaces the full recount (leaders left unset so the pair re-enters
    // this path next round); see PeelToBcc for the validity contract.
    next_round_exact = true;
    const bool approx_this_round =
        approx.enabled && cand.NumAlive() > approx.threshold;
    // Exact per-pair counts for this round's validity check. Leader pair: a
    // full recount (Algorithm 3). Online: the pair's fresh delta counter,
    // otherwise a full recount that refreshes the counter so later rounds go
    // back to deltas.
    auto exact_pair = [&](PairState& ps) -> const ButterflyCounts& {
      if (opts.use_leader_pair) {
        count_pair(ps.i, ps.j);
        return counts;
      }
      if (ps.pc->stale()) {
        {
          ScopedAccumulator t(&stats->butterfly_seconds);
          ps.pc->Recount();
        }
        ++stats->butterfly_counting_calls;
        ++stats->delta_fallbacks;
      } else {
        ++stats->delta_rounds;
      }
      return ps.pc->RefreshMaxes();
    };
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
      PairState& ps = pairs[pi];
      if (!ps.active) continue;
      bool need_recount = !opts.use_leader_pair;
      if (opts.use_leader_pair) {
        // Leaders may be unset (kInvalidVertex) after an approx round.
        bool i_ok = ps.leader_i.leader != kInvalidVertex &&
                    cand.IsAlive(ps.leader_i.leader) && ps.leader_i.chi >= p.b;
        bool j_ok = ps.leader_j.leader != kInvalidVertex &&
                    cand.IsAlive(ps.leader_j.leader) && ps.leader_j.chi >= p.b;
        need_recount = !i_ok || !j_ok;
      }
      if (!need_recount) continue;
      if (approx_this_round) {
        double est = 0;
        {
          ScopedAccumulator t(&stats->butterfly_seconds);
          ApproxButterflyOptions aopts;
          aopts.samples = EffectiveSampleCount(approx, cand.NumAlive());
          aopts.seed = DeriveEstimateSeed(approx.seed, round_idx, pi);
          est = EstimateTotalButterflies(g, groups[ps.i], groups[ps.j], cand.GroupMask(ps.i),
                                         cand.GroupMask(ps.j), aopts, estimate_scratch);
        }
        ++stats->approx_checks;
        used_approx = true;
        next_round_exact = false;
        // A failing estimate may be a sampling miss: confirm it exactly
        // below instead of deactivating the pair on the sample alone.
        if (est >= static_cast<double>(p.b)) {
          ps.leader_i = LeaderState{};
          ps.leader_j = LeaderState{};
          continue;
        }
      }
      if (opts.use_leader_pair) ++stats->leader_rebuilds;
      const ButterflyCounts& rc = exact_pair(ps);
      if (rc.max_left < p.b || rc.max_right < p.b) {
        ps.active = false;
        // A deactivated pair is never maintained or examined again; stale
        // the counter so the audit below skips it.
        if (ps.pc != nullptr) ps.pc->MarkStale();
        continue;
      }
      if (opts.use_leader_pair) {
        ScopedAccumulator t(&stats->leader_update_seconds);
        ps.leader_i = IdentifyLeader(g, cand.GroupMask(ps.i), q.vertices[ps.i], kLeaderRho, p.b,
                                     rc, rc.max_left, rc.argmax_left, ws);
        ps.leader_j = IdentifyLeader(g, cand.GroupMask(ps.j), q.vertices[ps.j], kLeaderRho, p.b,
                                     rc, rc.max_right, rc.argmax_right, ws);
      }
    }
#if BCCS_DCHECK_IS_ON
    for (PairState& ps : pairs) {
      if (ps.active && ps.pc != nullptr && !ps.pc->stale()) ps.pc->AuditAgainstRecount();
    }
#endif
    if (!meta_connected()) break;

    {
      ScopedAccumulator t(&stats->query_distance_seconds);
      if (opts.fast_query_distance) {
        for (std::size_t i = 0; i < m; ++i) {
          UpdateDistancesAfterDeletion(g, cand.alive(), removed, dist[i], &changed);
          for (VertexId v : changed) queue.Update(v, query_distance(v));
        }
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          BfsDistances(g, cand.alive(), q.vertices[i], dist[i]);
        }
        for (VertexId v : members) {
          if (cand.IsAlive(v)) queue.Update(v, query_distance(v));
        }
      }
    }
    if (!queries_connected()) break;
  }

  if (!round_qd.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < round_qd.size(); ++i) {
      if (round_qd[i] <= round_qd[best]) best = i;
    }
    if (used_approx && !round_exact[best]) {
      // Exact re-check of the chosen round: recount every label pair over
      // exactly the round's members and require Definition 7 cross-group
      // connectivity. On failure fall back to the best exactly-validated
      // round (round 0 — G0 — always qualifies), so an approximate-only
      // answer is never returned.
      bool ok;
      {
        std::vector<std::vector<char>> masks(m);
        std::vector<std::vector<VertexId>*> lists(m);
        for (std::size_t i = 0; i < m; ++i) {
          masks[i] = ws->CharPool().Acquire(n);
          lists[i] = ws->AcquireIdVec();
          for (VertexId v : groups[i]) {
            if (removal_round[v] < best) continue;
            masks[i][v] = 1;
            lists[i]->push_back(v);
          }
        }
        UnionFind uf(m);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = i + 1; j < m; ++j) {
            {
              ScopedAccumulator t(&stats->butterfly_seconds);
              CountButterfliesInto(g, *lists[i], *lists[j], masks[i], masks[j], ws, &counts);
            }
            ++stats->butterfly_counting_calls;
            if (counts.max_left >= p.b && counts.max_right >= p.b) {
              uf.Union(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
            }
          }
        }
        ok = true;
        for (std::size_t i = 1; i < m; ++i) {
          ok = ok && uf.Connected(0, static_cast<std::uint32_t>(i));
        }
        for (std::size_t i = 0; i < m; ++i) {
          ws->CharPool().Release(std::move(masks[i]), *lists[i]);
          ws->ReleaseIdVec(lists[i]);
        }
      }
      if (!ok) {
        std::size_t fallback = 0;
        for (std::size_t i = 1; i < round_qd.size(); ++i) {
          if (round_exact[i] && round_qd[i] <= round_qd[fallback]) fallback = i;
        }
        best = fallback;
      }
    }
    for (VertexId v : members) {
      if (removal_round[v] >= best) out.vertices.push_back(v);
    }
    std::sort(out.vertices.begin(), out.vertices.end());
  }

  release_buffers();
  ws->U32InfPool().Release(std::move(removal_round), members);
  for (std::size_t i = 0; i < m; ++i) ws->ReleaseDistance(dist[i]);
  if (estimate_scratch != nullptr) ws->ReleaseIdVec(estimate_scratch);
  stats->total_seconds += total.Seconds();
  return out;
}

}  // namespace bccs
