#include "bcc/peel.h"

#include <algorithm>
#include <memory>

#include "bcc/candidate.h"
#include "bcc/leader_pair.h"
#include "bcc/query_distance.h"
#include "butterfly/approx_counting.h"
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

// Definition 7: the active pairs connect all m groups in the label
// meta-graph.
bool MetaConnected(const std::vector<PairState>& pairs, std::size_t m) {
  UnionFind uf(m);
  for (const PairState& ps : pairs) {
    if (ps.active) {
      uf.Union(static_cast<std::uint32_t>(ps.i), static_cast<std::uint32_t>(ps.j));
    }
  }
  for (std::size_t i = 1; i < m; ++i) {
    if (!uf.Connected(0, static_cast<std::uint32_t>(i))) return false;
  }
  return true;
}

// Algorithm 7 on one leader: debit the butterflies it loses with `v`.
void DebitLeader(LeaderButterflyUpdater& updater, const GroupedCandidate& cand,
                 const PairState& ps, LeaderState* lead, VertexId v) {
  if (lead->leader == kInvalidVertex || v == lead->leader ||
      !cand.IsAlive(lead->leader)) {
    return;
  }
  std::uint64_t loss = updater.LossOnDeletion(cand.GroupMask(ps.i), cand.GroupMask(ps.j),
                                              lead->leader, v);
  lead->chi = loss > lead->chi ? 0 : lead->chi - loss;
}

}  // namespace

Community PeelGroups(const LabeledGraph& g, const std::vector<VertexId>& queries,
                     std::vector<std::vector<VertexId>> groups,
                     std::vector<std::uint32_t> ks, const SearchOptions& opts,
                     std::uint64_t b, const ButterflyCounts* seed01, SearchStats* stats,
                     QueryWorkspace* ws) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Community out;
  // Callers without a warm workspace still run through the same engine on a
  // scoped one (identical results).
  std::unique_ptr<QueryWorkspace> scoped_ws;
  if (ws == nullptr) {
    scoped_ws = std::make_unique<QueryWorkspace>();
    ws = scoped_ws.get();
  }
  const std::size_t m = groups.size();
  const std::size_t n = g.NumVertices();
  const Deadline& deadline = ws->deadline();
  const Deadline* cascade_deadline = deadline.unlimited() ? nullptr : &deadline;

  // Phase-boundary deadline check: a query that already expired during
  // Find-G0 skips the candidate build, pair counts and initial BFS.
  if (deadline.Expired()) {
    stats->timed_out = true;
    return out;
  }

  // All initial members, group by group: they scope every pooled-buffer
  // reset and the final answer scan.
  std::vector<VertexId> members;
  for (const auto& grp : groups) members.insert(members.end(), grp.begin(), grp.end());
  GroupedCandidate cand(g, std::move(groups), std::move(ks), ws);

  // One pooled counts buffer serves every per-pair (re)count; chi entries
  // are only ever written for candidate members and scrubbed on release.
  ButterflyCounts counts;
  counts.chi = ws->U64ZeroPool().Acquire(n);
  auto count_pair = [&](std::size_t i, std::size_t j) {
    ScopedAccumulator t(&stats->butterfly_seconds);
    ++stats->butterfly_counting_calls;
    CountButterfliesInto(g, cand.GroupMembers(i), cand.GroupMembers(j), cand.GroupMask(i),
                         cand.GroupMask(j), ws, &counts);
  };
  std::vector<PairState> pairs;
  auto release_pairs = [&] {
    for (PairState& ps : pairs) {
      if (ps.pc != nullptr) ws->ReleasePeelCounter(ps.pc);
    }
    ws->U64ZeroPool().Release(std::move(counts.chi), members);
  };

  // --- Pair states, each seeded from an exact count over the initial groups.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const bool seeded = seed01 != nullptr && i == 0 && j == 1;
      if (!seeded) {
        // Phase-boundary check: the initial O(m^2) pairwise counts are the
        // most expensive pre-peel step, so an expiring query bails between
        // pairs instead of finishing the whole matrix.
        if (deadline.Expired()) {
          stats->timed_out = true;
          release_pairs();
          return out;
        }
        count_pair(i, j);
      }
      const ButterflyCounts& c = seeded ? *seed01 : counts;
      PairState ps;
      ps.i = i;
      ps.j = j;
      ps.active = c.max_left >= b && c.max_right >= b;
      if (ps.active && opts.use_leader_pair) {
        ScopedAccumulator t(&stats->leader_update_seconds);
        ps.leader_i = IdentifyLeader(g, cand.GroupMask(i), queries[i], kLeaderRho, b, c,
                                     c.max_left, c.argmax_left, ws);
        ps.leader_j = IdentifyLeader(g, cand.GroupMask(j), queries[j], kLeaderRho, b, c,
                                     c.max_right, c.argmax_right, ws);
      } else if (ps.active) {
        // Online: from here the pair's chi is debited per removed vertex
        // instead of recounted per round.
        BCCS_DCHECK(!seeded || c.chi.size() == n) << "a found G0 carries its counts";
        ps.pc = ws->AcquirePeelCounter();
        ps.pc->Init(g, cand.GroupMembers(i), cand.GroupMembers(j), cand.GroupMask(i),
                    cand.GroupMask(j), ws);
        ps.pc->SeedFrom(c);
      }
      pairs.push_back(ps);
    }
  }
  if (!MetaConnected(pairs, m)) {
    release_pairs();
    return out;
  }
  stats->g0_size += cand.NumAlive();

  // --- Query distances (one BFS tree per query vertex). ---
  std::vector<DistanceMap*> dist(m);
  {
    ScopedAccumulator t(&stats->query_distance_seconds);
    for (std::size_t i = 0; i < m; ++i) {
      dist[i] = ws->AcquireDistance();
      BfsDistances(g, cand.alive(), queries[i], dist[i]);
    }
  }
  // Definition 5: the max distance to any query.
  auto query_distance = [&](VertexId v) {
    std::uint32_t d = 0;
    for (const DistanceMap* di : dist) {
      const std::uint32_t dv = di->Get(v);
      if (dv == kInfDistance) return kInfDistance;
      d = std::max(d, dv);
    }
    return d;
  };

  LeaderButterflyUpdater updater(g, ws->LeaderStamp(n), ws->LeaderStampCounter());
  // removal_round defaults to 0xffffffff = "never removed" (the pool default).
  std::vector<std::uint32_t> removal_round = ws->U32InfPool().Acquire(n);
  std::vector<std::uint32_t> round_qd;
  // round_exact[i]: round i's state was validated exactly (Algorithm 3, a
  // fresh counter or maintained leader chi) for every pair, not by a
  // sampled estimate alone. Round 0 is G0, exactly counted above.
  std::vector<char> round_exact;
  bool next_round_exact = true;

  const ApproxOptions& approx = opts.approx;
  std::vector<VertexId>* estimate_scratch = approx.enabled ? ws->AcquireIdVec() : nullptr;

  // Bucketed farthest-vertex selection: every alive member is queued at its
  // query distance; each round pops the maximum level.
  PeelQueue& queue = ws->peel_queue();
  queue.Reset(n);
  for (VertexId v : members) queue.Update(v, query_distance(v));
  auto is_query = [&](VertexId v) {
    return std::find(queries.begin(), queries.end(), v) != queries.end();
  };

  std::vector<VertexId> batch;
  std::vector<std::vector<VertexId>> changed(m);

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
    if (batch.empty()) break;  // only the queries remain at max distance
    if (!opts.bulk_delete) {
      // Single-vertex deletion: peel the smallest id for determinism and
      // requeue the untouched remainder.
      std::size_t min_idx = 0;
      for (std::size_t i = 1; i < batch.size(); ++i) {
        if (batch[i] < batch[min_idx]) min_idx = i;
      }
      std::swap(batch[0], batch[min_idx]);
      for (std::size_t i = 1; i < batch.size(); ++i) queue.Requeue(batch[i]);
      batch.resize(1);
    }

    const auto round_idx = static_cast<std::uint32_t>(round_qd.size() - 1);

    // Pre-round counter upkeep (Online). The per-round debit budget resets
    // here, and any counter is invalidated up front if this round *could*
    // take the sampled-estimate path below (its chi goes stale by design and
    // resyncs via a full recount when exact values are next needed):
    // approx_this_round is decided on the post-removal alive count, which
    // never exceeds the pre-removal count, so a counter that is still fresh
    // here implies the round is exact.
    const bool approx_possible = approx.enabled && cand.NumAlive() > approx.threshold;
    for (PairState& ps : pairs) {
      if (ps.pc == nullptr) continue;
      if (approx_possible) ps.pc->MarkStale();
      ps.pc->BeginRound();
    }

    // Delete + core maintenance (Algorithm 4). Per removed vertex, while the
    // bipartite graphs are still consistent, every active pair containing it
    // is debited by its method: Algorithm 7 on the two leaders, or the
    // counter on every chi (a refused debit -- stale counter, or work over
    // the wedge budget -- stales the counter; the validity check recounts).
    auto on_remove = [&](VertexId v) {
      const std::uint32_t gv = cand.GroupOf(v);
      for (PairState& ps : pairs) {
        if (!ps.active || (ps.i != gv && ps.j != gv)) continue;
        if (opts.use_leader_pair) {
          DebitLeader(updater, cand, ps, &ps.leader_i, v);
          DebitLeader(updater, cand, ps, &ps.leader_j, v);
        } else {
          ps.pc->OnRemove(v);
        }
      }
    };
    bool cascade_expired = false;
    std::vector<VertexId> removed;
    {
      ScopedAccumulator t(opts.use_leader_pair ? &stats->leader_update_seconds
                                               : &stats->butterfly_delta_seconds);
      removed =
          cand.RemoveAndMaintain(batch, on_remove, cascade_deadline, &cascade_expired);
    }
    for (VertexId v : removed) removal_round[v] = round_idx;
    stats->vertices_removed += removed.size();
    if (cascade_expired) {
      // The cascade was cut short, so the surviving candidate may violate
      // its cores; every earlier recorded round is still a valid state. The
      // counters stopped debiting mid-cascade, so their chi is stale too.
      stats->timed_out = true;
      for (PairState& ps : pairs) {
        if (ps.pc != nullptr) ps.pc->MarkStale();
      }
      break;
    }

    bool query_dead = false;
    for (VertexId v : queries) query_dead |= !cand.IsAlive(v);
    if (query_dead) break;

    // Butterfly / cross-group-connectivity maintenance. With the approx
    // fast path and a still-huge candidate, a pair that needs a recount
    // first tries a sampled estimate (a necessary condition: every
    // butterfly gives two vertices per side, so max chi >= b needs total >=
    // b). A passing estimate validates the pair and leaves its leaders unset
    // so it re-enters this path next round; a failing one may be a sampling
    // miss, so the pair falls through to the exact check.
    const bool approx_this_round = approx.enabled && cand.NumAlive() > approx.threshold;
    next_round_exact = true;
    bool deactivated = false;
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
      PairState& ps = pairs[pi];
      if (!ps.active) continue;
      if (opts.use_leader_pair) {
        // Leaders may be unset (kInvalidVertex) after an approx round; leader
        // chi is maintained exactly, so two passing leaders validate the pair.
        auto ok = [&](const LeaderState& l) {
          return l.leader != kInvalidVertex && cand.IsAlive(l.leader) && l.chi >= b;
        };
        if (ok(ps.leader_i) && ok(ps.leader_j)) continue;
      }
      if (approx_this_round) {
        double est = 0;
        {
          ScopedAccumulator t(&stats->butterfly_seconds);
          ApproxButterflyOptions aopts;
          aopts.samples = EffectiveSampleCount(approx, cand.NumAlive());
          aopts.seed = DeriveEstimateSeed(approx.seed, round_idx, pi);
          est = EstimateTotalButterflies(g, cand.GroupMembers(ps.i),
                                         cand.GroupMembers(ps.j), cand.GroupMask(ps.i),
                                         cand.GroupMask(ps.j), aopts, estimate_scratch);
        }
        ++stats->approx_checks;
        if (est >= static_cast<double>(b)) {
          next_round_exact = false;
          ps.leader_i = LeaderState{};
          ps.leader_j = LeaderState{};
          continue;
        }
      }
      // Exact per-pair counts. Leader pair: a full recount (Algorithm 3).
      // Online: the pair's maintained chi while the counter is fresh
      // (delta_rounds), else a counter-refilling full recount
      // (delta_fallbacks) so later rounds go back to deltas.
      const ButterflyCounts* rc = &counts;
      if (opts.use_leader_pair) {
        ++stats->leader_rebuilds;
        count_pair(ps.i, ps.j);
      } else {
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
        rc = &ps.pc->RefreshMaxes();
      }
      if (rc->max_left < b || rc->max_right < b) {
        ps.active = false;
        deactivated = true;
        // A deactivated pair is never maintained or examined again; stale
        // the counter so the audit below skips it.
        if (ps.pc != nullptr) ps.pc->MarkStale();
        continue;
      }
      if (opts.use_leader_pair) {
        ScopedAccumulator t(&stats->leader_update_seconds);
        ps.leader_i = IdentifyLeader(g, cand.GroupMask(ps.i), queries[ps.i], kLeaderRho,
                                     b, *rc, rc->max_left, rc->argmax_left, ws);
        ps.leader_j = IdentifyLeader(g, cand.GroupMask(ps.j), queries[ps.j], kLeaderRho,
                                     b, *rc, rc->max_right, rc->argmax_right, ws);
      }
    }
#if BCCS_DCHECK_IS_ON
    // Debug-level equivalence audit (DESIGN.md contract 8): a counter's chi
    // must match a from-scratch recount after every exactly-validated round.
    for (PairState& ps : pairs) {
      if (ps.active && ps.pc != nullptr && !ps.pc->stale()) ps.pc->AuditAgainstRecount();
    }
#endif
    if (deactivated && !MetaConnected(pairs, m)) break;

    // Query distance maintenance. Only vertices whose distance changed need
    // a queue update; the incremental repair reports exactly those.
    {
      ScopedAccumulator t(&stats->query_distance_seconds);
      if (opts.fast_query_distance) {
        for (std::size_t i = 0; i < m; ++i) {
          UpdateDistancesAfterDeletion(g, cand.alive(), removed, dist[i], &changed[i]);
        }
        for (const auto& ch : changed) {
          for (VertexId v : ch) queue.Update(v, query_distance(v));
        }
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          BfsDistances(g, cand.alive(), queries[i], dist[i]);
        }
        for (VertexId v : members) {
          if (cand.IsAlive(v)) queue.Update(v, query_distance(v));
        }
      }
    }
    bool disconnected = false;
    for (VertexId v : queries) disconnected |= dist[0]->Get(v) == kInfDistance;
    if (disconnected) break;
  }

  if (!round_qd.empty()) {
    // Answer: the intermediate state with the smallest query distance (latest
    // such round, which is the smallest such graph).
    std::size_t best = 0;
    for (std::size_t i = 1; i < round_qd.size(); ++i) {
      if (round_qd[i] <= round_qd[best]) best = i;
    }
    // Exact re-check of a sampled round: recount every label pair over
    // exactly the round's members and require Definition 7 connectivity.
    auto exact_round_valid = [&](std::size_t r) {
      std::vector<std::vector<char>> masks(m);
      std::vector<std::vector<VertexId>*> lists(m);
      for (std::size_t i = 0; i < m; ++i) {
        masks[i] = ws->CharPool().Acquire(n);
        lists[i] = ws->AcquireIdVec();
        for (VertexId v : cand.GroupMembers(i)) {
          if (removal_round[v] < r) continue;
          masks[i][v] = 1;
          lists[i]->push_back(v);
        }
      }
      UnionFind uf(m);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = i + 1; j < m; ++j) {
          {
            ScopedAccumulator t(&stats->butterfly_seconds);
            CountButterfliesInto(g, *lists[i], *lists[j], masks[i], masks[j], ws,
                                 &counts);
          }
          ++stats->butterfly_counting_calls;
          if (counts.max_left >= b && counts.max_right >= b) {
            uf.Union(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
          }
        }
      }
      bool ok = true;
      for (std::size_t i = 1; i < m; ++i) {
        ok = ok && uf.Connected(0, static_cast<std::uint32_t>(i));
      }
      for (std::size_t i = 0; i < m; ++i) {
        ws->CharPool().Release(std::move(masks[i]), *lists[i]);
        ws->ReleaseIdVec(lists[i]);
      }
      return ok;
    };
    // An approximate-only answer is never returned: on failure, fall back to
    // the best exactly-validated round (round 0 -- G0 -- always qualifies).
    if (!round_exact[best] && !exact_round_valid(best)) {
      std::size_t fallback = 0;
      for (std::size_t i = 1; i < round_qd.size(); ++i) {
        if (round_exact[i] && round_qd[i] <= round_qd[fallback]) fallback = i;
      }
      best = fallback;
    }
    for (VertexId v : members) {
      if (removal_round[v] >= best) out.vertices.push_back(v);  // alive = never removed
    }
    std::sort(out.vertices.begin(), out.vertices.end());
  }

  release_pairs();
  ws->U32InfPool().Release(std::move(removal_round), members);
  for (DistanceMap* d : dist) ws->ReleaseDistance(d);
  if (estimate_scratch != nullptr) ws->ReleaseIdVec(estimate_scratch);
  return out;
}

}  // namespace bccs
