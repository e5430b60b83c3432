#include "bcc/online_search.h"

#include <algorithm>
#include <memory>

#include "bcc/candidate.h"
#include "bcc/leader_pair.h"
#include "bcc/query_distance.h"
#include "butterfly/approx_counting.h"
#include "butterfly/butterfly_counting.h"
#include "butterfly/butterfly_update.h"
#include "butterfly/peel_counter.h"
#include "common/check.h"
#include "eval/timer.h"

namespace bccs {
namespace {

// Query distance of one vertex (Definition 5): max distance to any query.
inline std::uint32_t QueryDistance(std::uint32_t dl, std::uint32_t dr) {
  if (dl == kInfDistance || dr == kInfDistance) return kInfDistance;
  return std::max(dl, dr);
}

}  // namespace

Community PeelToBcc(const LabeledGraph& g, const G0Result& g0, const BccQuery& q,
                    const SearchOptions& opts, std::uint64_t b, SearchStats* stats,
                    QueryWorkspace* ws) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Community out;
  if (!g0.found) return out;

  // Callers without a warm workspace still run through the same engine on a
  // scoped one (cold start costs what the old per-query allocations did).
  std::unique_ptr<QueryWorkspace> scoped_ws;
  if (ws == nullptr) {
    scoped_ws = std::make_unique<QueryWorkspace>();
    ws = scoped_ws.get();
  }
  const std::size_t n = g.NumVertices();

  // Phase-boundary deadline check: a query that already expired during
  // Find-G0 skips the candidate build and initial BFS entirely.
  if (ws->deadline().Expired()) {
    stats->timed_out = true;
    return out;
  }

  GroupedCandidate cand(g, {g0.left, g0.right}, {g0.k1, g0.k2}, ws);
  stats->g0_size += cand.NumAlive();

  // All initial members, used to scope resets and the final answer scan.
  std::vector<VertexId> members = g0.left;
  members.insert(members.end(), g0.right.begin(), g0.right.end());

  DistanceMap* dist_l = ws->AcquireDistance();
  DistanceMap* dist_r = ws->AcquireDistance();
  {
    ScopedAccumulator t(&stats->query_distance_seconds);
    BfsDistances(g, cand.alive(), q.ql, dist_l);
    BfsDistances(g, cand.alive(), q.qr, dist_r);
  }

  // One validity mechanism per method (DESIGN.md contract 8), both seeded
  // from Find-G0's exact counts (same candidate, all members alive).
  // Leader pair: Algorithm 7 debits the two leaders' chi per removed vertex;
  // a failing leader triggers an Algorithm 3 recount into `recount` and
  // re-identifies the leaders. Online: a PeelButterflyCounter debits every
  // member's chi per removed vertex and recounts only once stale.
  LeaderButterflyUpdater updater(g, ws->LeaderStamp(n), ws->LeaderStampCounter());
  ButterflyCounts recount;
  recount.chi = ws->U64ZeroPool().Acquire(n);
  LeaderState lead_l, lead_r;
  PeelButterflyCounter* pc = nullptr;
  if (opts.use_leader_pair) {
    ScopedAccumulator t(&stats->leader_update_seconds);
    lead_l = IdentifyLeader(g, cand.GroupMask(0), q.ql, kLeaderRho, b, g0.counts,
                            g0.counts.max_left, g0.counts.argmax_left, ws);
    lead_r = IdentifyLeader(g, cand.GroupMask(1), q.qr, kLeaderRho, b, g0.counts,
                            g0.counts.max_right, g0.counts.argmax_right, ws);
  } else {
    BCCS_DCHECK(g0.counts.chi.size() == n) << "a found G0 carries its counts";
    pc = ws->AcquirePeelCounter();
    pc->Init(g, g0.left, g0.right, cand.GroupMask(0), cand.GroupMask(1), ws);
    pc->SeedFrom(g0.counts);
  }

  // removal_round defaults to 0xffffffff = "never removed" (the pool default).
  std::vector<std::uint32_t> removal_round = ws->U32InfPool().Acquire(n);
  std::vector<std::uint32_t> round_qd;
  // round_exact[i]: the check that validated round i's state was exact
  // (Algorithm 3, the counter or the leaders' chi), not a sampled estimate.
  // Round 0 is G0, exactly validated by Find-G0.
  std::vector<char> round_exact;
  bool next_round_exact = true;
  bool used_approx = false;

  const Deadline& deadline = ws->deadline();
  const Deadline* cascade_deadline = deadline.unlimited() ? nullptr : &deadline;
  const ApproxOptions& approx = opts.approx;
  std::vector<VertexId>* estimate_scratch =
      approx.enabled ? ws->AcquireIdVec() : nullptr;
  // Sampled validity check (necessary condition: estimated total >= b; every
  // butterfly gives two vertices per side, so max chi >= b needs total >= b).
  // It can only pass a round: a failing estimate may be a sampling miss, so
  // the round falls through to the exact check instead of ending the peel.
  auto estimate_valid = [&](std::uint32_t round_idx) {
    ScopedAccumulator t(&stats->butterfly_seconds);
    ApproxButterflyOptions aopts;
    aopts.samples = EffectiveSampleCount(approx, cand.NumAlive());
    aopts.seed = DeriveEstimateSeed(approx.seed, round_idx);
    double est = EstimateTotalButterflies(g, g0.left, g0.right, cand.GroupMask(0),
                                          cand.GroupMask(1), aopts, estimate_scratch);
    ++stats->approx_checks;
    used_approx = true;
    next_round_exact = false;
    return est >= static_cast<double>(b);
  };

  // Bucketed farthest-vertex selection: every alive member is queued at its
  // query distance; each round pops the maximum level.
  PeelQueue& queue = ws->peel_queue();
  queue.Reset(n);
  for (VertexId v : members) {
    queue.Update(v, QueryDistance(dist_l->Get(v), dist_r->Get(v)));
  }
  auto is_query = [&](VertexId v) { return v == q.ql || v == q.qr; };

  std::vector<VertexId> batch;
  std::vector<VertexId> changed_l, changed_r;

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

    // Counter bookkeeping (Online). A round that may be validated by a
    // sampled estimate skips the debits entirely (chi goes stale by design
    // and resyncs via a full recount when exact values are next needed); the
    // candidate only shrinks during the cascade, so the pre-removal size
    // check can never under-predict the approx path.
    if (pc != nullptr) {
      if (approx.enabled && cand.NumAlive() > approx.threshold) pc->MarkStale();
      pc->BeginRound();
    }

    // Delete + core maintenance (Algorithm 4); the method's chi debits run
    // per removed vertex while the bipartite graph is still consistent.
    bool cascade_expired = false;
    std::vector<VertexId> removed;
    auto leader_loss = [&](VertexId v) {
      if (lead_l.leader != kInvalidVertex && v != lead_l.leader &&
          cand.IsAlive(lead_l.leader)) {
        std::uint64_t loss =
            updater.LossOnDeletion(cand.GroupMask(0), cand.GroupMask(1), lead_l.leader, v);
        lead_l.chi = loss > lead_l.chi ? 0 : lead_l.chi - loss;
      }
      if (lead_r.leader != kInvalidVertex && v != lead_r.leader &&
          cand.IsAlive(lead_r.leader)) {
        std::uint64_t loss =
            updater.LossOnDeletion(cand.GroupMask(0), cand.GroupMask(1), lead_r.leader, v);
        lead_r.chi = loss > lead_r.chi ? 0 : lead_r.chi - loss;
      }
    };
    if (opts.use_leader_pair) {
      ScopedAccumulator t(&stats->leader_update_seconds);
      removed = cand.RemoveAndMaintain(batch, leader_loss, cascade_deadline, &cascade_expired);
    } else {
      // A refused debit (stale counter, or work over the wedge budget) leaves
      // the counter stale; the validity check below then recounts.
      ScopedAccumulator t(&stats->butterfly_delta_seconds);
      removed = cand.RemoveAndMaintain(
          batch, [&](VertexId v) { pc->OnRemove(v); }, cascade_deadline, &cascade_expired);
    }
    for (VertexId v : removed) removal_round[v] = round_idx;
    stats->vertices_removed += removed.size();
    if (cascade_expired) {
      // The cascade was cut short, so the surviving candidate may violate
      // its cores; every earlier recorded round is still a valid state.
      // The counter stopped debiting mid-cascade, so its chi is stale too.
      if (pc != nullptr) pc->MarkStale();
      stats->timed_out = true;
      break;
    }

    if (!cand.IsAlive(q.ql) || !cand.IsAlive(q.qr)) break;

    // Butterfly condition maintenance. With the approx fast path active and
    // a still-huge candidate, a passing sampled estimate replaces the full
    // recount; leaders are left unset so the next round re-enters this path
    // until the candidate shrinks below the threshold (or an estimate fails
    // and the exact check takes over).
    const bool approx_this_round =
        approx.enabled && cand.NumAlive() > approx.threshold;
    bool valid = true;
    if (opts.use_leader_pair) {
      // Leaders may be unset (kInvalidVertex) after an approx round.
      bool left_ok = lead_l.leader != kInvalidVertex && cand.IsAlive(lead_l.leader) &&
                     lead_l.chi >= b;
      bool right_ok = lead_r.leader != kInvalidVertex && cand.IsAlive(lead_r.leader) &&
                      lead_r.chi >= b;
      if (left_ok && right_ok) {
        next_round_exact = true;  // leader chi is maintained exactly
      } else if (approx_this_round && estimate_valid(round_idx)) {
        lead_l = LeaderState{};
        lead_r = LeaderState{};
      } else {
        {
          ScopedAccumulator t(&stats->butterfly_seconds);
          CountButterfliesInto(g, g0.left, g0.right, cand.GroupMask(0), cand.GroupMask(1), ws,
                               &recount);
        }
        ++stats->butterfly_counting_calls;
        ++stats->leader_rebuilds;
        next_round_exact = true;
        if (recount.max_left < b || recount.max_right < b) {
          valid = false;
        } else {
          ScopedAccumulator t(&stats->leader_update_seconds);
          lead_l = IdentifyLeader(g, cand.GroupMask(0), q.ql, kLeaderRho, b, recount,
                                  recount.max_left, recount.argmax_left, ws);
          lead_r = IdentifyLeader(g, cand.GroupMask(1), q.qr, kLeaderRho, b, recount,
                                  recount.max_right, recount.argmax_right, ws);
        }
      }
    } else if (!(approx_this_round && estimate_valid(round_idx))) {
      // Online: the maintained chi while the counter is fresh (recount
      // avoided, SearchStats::delta_rounds), else a counter-refilling full
      // recount (delta_fallbacks).
      if (pc->stale()) {
        {
          ScopedAccumulator t(&stats->butterfly_seconds);
          pc->Recount();
        }
        ++stats->butterfly_counting_calls;
        ++stats->delta_fallbacks;
      } else {
        ++stats->delta_rounds;
      }
      const ButterflyCounts& rc = pc->RefreshMaxes();
      next_round_exact = true;
      if (rc.max_left < b || rc.max_right < b) valid = false;
    }
#if BCCS_DCHECK_IS_ON
    // Debug-level equivalence audit (DESIGN.md contract 8): the counter's chi
    // must match a from-scratch recount after every exactly-validated Online
    // round.
    if (pc != nullptr && !pc->stale()) pc->AuditAgainstRecount();
#endif
    if (!valid) break;

    // Query distance maintenance. Only vertices whose distance changed need
    // a queue update; the incremental repair reports exactly those.
    {
      ScopedAccumulator t(&stats->query_distance_seconds);
      if (opts.fast_query_distance) {
        UpdateDistancesAfterDeletion(g, cand.alive(), removed, dist_l, &changed_l);
        UpdateDistancesAfterDeletion(g, cand.alive(), removed, dist_r, &changed_r);
        for (VertexId v : changed_l) {
          queue.Update(v, QueryDistance(dist_l->Get(v), dist_r->Get(v)));
        }
        for (VertexId v : changed_r) {
          queue.Update(v, QueryDistance(dist_l->Get(v), dist_r->Get(v)));
        }
      } else {
        BfsDistances(g, cand.alive(), q.ql, dist_l);
        BfsDistances(g, cand.alive(), q.qr, dist_r);
        for (VertexId v : members) {
          if (cand.IsAlive(v)) queue.Update(v, QueryDistance(dist_l->Get(v), dist_r->Get(v)));
        }
      }
    }
    if (dist_l->Get(q.qr) == kInfDistance) break;  // queries disconnected
  }

  if (!round_qd.empty()) {
    // Answer: the intermediate BCC with the smallest query distance (latest
    // such round, which is the smallest such graph).
    std::size_t best = 0;
    for (std::size_t i = 1; i < round_qd.size(); ++i) {
      if (round_qd[i] <= round_qd[best]) best = i;
    }
    if (used_approx && !round_exact[best]) {
      // Exact re-check of the chosen answer (Algorithm 3 over exactly its
      // members). A sampled round may have validated an invalid state, so an
      // approximate-only answer is never returned: on failure, fall back to
      // the best exactly-validated round (round 0 — G0 — always qualifies).
      auto exact_round_valid = [&](std::size_t r) {
        std::vector<char> ml = ws->CharPool().Acquire(n);
        std::vector<char> mr = ws->CharPool().Acquire(n);
        std::vector<VertexId>* ll = ws->AcquireIdVec();
        std::vector<VertexId>* rl = ws->AcquireIdVec();
        // `members` is g0.left followed by g0.right, so the position tells
        // the side.
        for (std::size_t i = 0; i < members.size(); ++i) {
          VertexId v = members[i];
          if (removal_round[v] < r) continue;
          if (i < g0.left.size()) {
            ml[v] = 1;
            ll->push_back(v);
          } else {
            mr[v] = 1;
            rl->push_back(v);
          }
        }
        {
          ScopedAccumulator t(&stats->butterfly_seconds);
          CountButterfliesInto(g, *ll, *rl, ml, mr, ws, &recount);
        }
        ++stats->butterfly_counting_calls;
        bool ok = recount.max_left >= b && recount.max_right >= b;
        ws->CharPool().Release(std::move(ml), *ll);
        ws->CharPool().Release(std::move(mr), *rl);
        ws->ReleaseIdVec(ll);
        ws->ReleaseIdVec(rl);
        return ok;
      };
      if (!exact_round_valid(best)) {
        std::size_t fallback = 0;
        for (std::size_t i = 1; i < round_qd.size(); ++i) {
          if (round_exact[i] && round_qd[i] <= round_qd[fallback]) fallback = i;
        }
        best = fallback;
      }
    }
    for (VertexId v : members) {
      if (removal_round[v] >= best) out.vertices.push_back(v);  // alive = never removed
    }
    std::sort(out.vertices.begin(), out.vertices.end());
  }

  if (pc != nullptr) ws->ReleasePeelCounter(pc);
  ws->U32InfPool().Release(std::move(removal_round), members);
  ws->U64ZeroPool().Release(std::move(recount.chi), members);
  ws->ReleaseDistance(dist_l);
  ws->ReleaseDistance(dist_r);
  if (estimate_scratch != nullptr) ws->ReleaseIdVec(estimate_scratch);
  return out;
}

Community BccSearch(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    const SearchOptions& opts, SearchStats* stats, QueryWorkspace* ws) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer total;
  G0Result g0;
  {
    ScopedAccumulator t(&stats->find_g0_seconds);
    g0 = FindG0(g, q, p, stats, ws);
  }
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
