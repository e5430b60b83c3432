#ifndef BCCS_BCC_BCC_TYPES_H_
#define BCCS_BCC_BCC_TYPES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

/// A two-label BCC query: q_l and q_r must carry different labels.
struct BccQuery {
  VertexId ql = kInvalidVertex;
  VertexId qr = kInvalidVertex;
};

/// Parameters of the (k1, k2, b)-BCC model. k1/k2 = 0 means "auto": use the
/// coreness of the corresponding query vertex within its own label group
/// (the paper's default setting, Section 3.5).
struct BccParams {
  std::uint32_t k1 = 0;
  std::uint32_t k2 = 0;
  std::uint64_t b = 1;
};

/// A discovered community: a sorted set of vertex ids. Empty means "no BCC
/// exists for the query".
struct Community {
  std::vector<VertexId> vertices;

  bool Empty() const { return vertices.empty(); }
  std::size_t Size() const { return vertices.size(); }
  bool Contains(VertexId v) const {
    return std::binary_search(vertices.begin(), vertices.end(), v);
  }

  friend bool operator==(const Community&, const Community&) = default;
};

/// Per-query instrumentation. The Table-4 experiment reads the time splits
/// and the butterfly-counting call counter; the serving engine reads
/// `timed_out` and `approx_checks`.
struct SearchStats {
  std::size_t rounds = 0;
  /// Calls to the full butterfly-counting procedure (paper's Algorithm 3).
  std::size_t butterfly_counting_calls = 0;
  /// Sampled validity checks that replaced a full per-round recount
  /// (SearchOptions::approx fast path).
  std::size_t approx_checks = 0;
  /// Leader re-identifications triggered by a leader dying or dropping
  /// below b.
  std::size_t leader_rebuilds = 0;
  /// Exact per-round validity checks answered from incrementally maintained
  /// chi (PeelButterflyCounter) instead of a full Algorithm 3 recount.
  /// Online methods only: leader-pair searches always report 0.
  std::size_t delta_rounds = 0;
  /// Full recounts forced by counter staleness (per-round debit work over
  /// the wedge budget, approx rounds, deadline mid-cascade). Online only.
  std::size_t delta_fallbacks = 0;
  std::size_t vertices_removed = 0;
  std::size_t g0_size = 0;
  /// The query's deadline expired before peeling converged; the returned
  /// community is the best valid intermediate state (possibly empty), never
  /// an invalid one.
  bool timed_out = false;
  double find_g0_seconds = 0;
  double query_distance_seconds = 0;
  double butterfly_seconds = 0;       // full counting
  /// Online peel-cascade time (core maintenance plus the counter's wedge
  /// debits; replaces the per-round recount cost).
  double butterfly_delta_seconds = 0;
  /// Leader-pair peel-cascade time plus leader identification (Algorithm
  /// 6/7 work).
  double leader_update_seconds = 0;
  double total_seconds = 0;

  SearchStats& operator+=(const SearchStats& o) {
    rounds += o.rounds;
    butterfly_counting_calls += o.butterfly_counting_calls;
    approx_checks += o.approx_checks;
    leader_rebuilds += o.leader_rebuilds;
    delta_rounds += o.delta_rounds;
    delta_fallbacks += o.delta_fallbacks;
    vertices_removed += o.vertices_removed;
    g0_size += o.g0_size;
    timed_out = timed_out || o.timed_out;
    find_g0_seconds += o.find_g0_seconds;
    query_distance_seconds += o.query_distance_seconds;
    butterfly_seconds += o.butterfly_seconds;
    butterfly_delta_seconds += o.butterfly_delta_seconds;
    leader_update_seconds += o.leader_update_seconds;
    total_seconds += o.total_seconds;
    return *this;
  }
};

/// Approximate-butterfly fast path for the per-round validity check (the
/// Sanei-Mehri et al. KDD'18 sampling family, see butterfly/approx_counting).
///
/// When enabled and the alive candidate exceeds `threshold`, the per-round
/// "does a side still reach chi >= b" check first tries the necessary
/// condition "estimated total butterflies >= b" (every butterfly contributes
/// to two vertices per side, so max chi >= b requires total >= b). A passing
/// estimate validates the round; a failing one may be a sampling miss, so
/// the round falls back to the exact check rather than ending the peel.
/// Rounds validated by an estimate are tracked, and the final answer is
/// re-checked with an exact CountButterflies pass — falling back to the
/// best exactly-validated round on failure — so returned communities are
/// never approximate-only (see DESIGN.md).
struct ApproxOptions {
  bool enabled = false;
  /// Ceiling on sampled same-side vertex pairs per estimate (see
  /// EffectiveSampleCount).
  std::size_t samples = 2048;
  /// Alive-candidate size above which sampling replaces the exact recount.
  std::size_t threshold = 4096;
  /// Base RNG seed. The serving engine derives the effective per-query seed
  /// as `seed ^ request_id`, so batch answers are bit-identical regardless
  /// of which worker thread claims the query.
  std::uint64_t seed = 1;
};

/// Sample-count floor of EffectiveSampleCount.
inline constexpr std::size_t kApproxSampleFloor = 64;

/// Per-estimate sample count: one sampled pair per four alive candidate
/// vertices, clamped to [kApproxSampleFloor, samples] (just `samples` when
/// that is below the floor). Late peeling rounds on a shrinking candidate
/// therefore stop paying the full budget while large early rounds keep it.
/// Deterministic in (options, alive): the sampling schedule of a query never
/// depends on thread count or claim order.
inline std::size_t EffectiveSampleCount(const ApproxOptions& o, std::size_t alive) {
  return std::clamp(alive / 4, std::min(kApproxSampleFloor, o.samples), o.samples);
}

/// Strategy switches of Section 6. Online-BCC = defaults with both
/// accelerations off; LP-BCC = both on.
struct SearchOptions {
  /// Remove the whole farthest batch per round instead of a single vertex.
  bool bulk_delete = true;
  /// Incremental query-distance maintenance (the role of Algorithm 5): a
  /// decremental BFS repair per round instead of a full BFS.
  bool fast_query_distance = false;
  /// Selects how each peel round is validated (DESIGN.md contract 8). On:
  /// the leader pair of Algorithms 6 + 7, debiting only the two leaders per
  /// removed vertex and recounting (Algorithm 3) when a leader fails. Off
  /// (Online): every member's chi maintained by a PeelButterflyCounter,
  /// recounting only when the counter goes stale.
  bool use_leader_pair = false;
  /// Sampled validity checks on huge candidates (off by default).
  ApproxOptions approx;
};

inline SearchOptions OnlineBccOptions() { return SearchOptions{}; }

inline SearchOptions LpBccOptions() {
  SearchOptions o;
  o.fast_query_distance = true;
  o.use_leader_pair = true;
  return o;
}

}  // namespace bccs

#endif  // BCCS_BCC_BCC_TYPES_H_
