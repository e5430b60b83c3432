#ifndef BCCS_BCC_WORKSPACE_H_
#define BCCS_BCC_WORKSPACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/core_decomposition.h"
#include "graph/labeled_graph.h"

namespace bccs {

class LabelCorenessTable;
class PeelButterflyCounter;

/// Distance value for unreachable vertices. (Historically defined in
/// query_distance.h, which now re-exports it from here.)
inline constexpr std::uint32_t kInfDistance = static_cast<std::uint32_t>(-1);

/// Cooperative per-query deadline. A default-constructed deadline never
/// expires; Deadline::After(s) arms one `s` seconds from now.
///
/// The serving engine stamps the workspace with the request's deadline, and
/// the search engines poll it at peel-round granularity (plus every few
/// thousand cascade steps inside GroupedCandidate::RemoveAndMaintain). An
/// expired query stops peeling and returns the best valid intermediate
/// community found so far — possibly empty, never an invalid one — with
/// SearchStats::timed_out set.
class Deadline {
 public:
  Deadline() = default;  // unlimited

  static Deadline After(double seconds) {
    Deadline d;
    d.armed_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  bool unlimited() const { return !armed_; }
  bool Expired() const { return armed_ && std::chrono::steady_clock::now() >= at_; }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Aggregated workspace instrumentation. The batch engine and the
/// allocation-regression tests read `bulk_inits`: the number of O(n)-sized
/// allocations or fills performed by workspace-managed structures. After a
/// workspace has served one query of a given shape (warm-up), repeat queries
/// must not increase it — that is the "zero O(n) allocations in steady
/// state" contract of this subsystem.
struct WorkspaceStats {
  std::uint64_t bulk_inits = 0;
  std::uint64_t buffer_acquires = 0;
  std::uint64_t distance_resets = 0;
  std::uint64_t peel_resets = 0;

  WorkspaceStats& operator+=(const WorkspaceStats& o) {
    bulk_inits += o.bulk_inits;
    buffer_acquires += o.buffer_acquires;
    distance_resets += o.distance_resets;
    peel_resets += o.peel_resets;
    return *this;
  }
};

/// A pool of same-typed scratch vectors, each maintained at a fixed default
/// value while parked in the pool. Acquire() hands out an all-default buffer
/// in O(1) after warm-up; Release() restores the entries named in `touched`
/// (O(touched)) instead of refilling the whole buffer. In debug builds the
/// pool verifies the invariant on every release.
template <typename T>
class ScratchPool {
 public:
  explicit ScratchPool(T default_value) : default_(default_value) {}

  std::vector<T> Acquire(std::size_t n) {
    ++acquires_;
    if (!free_.empty()) {
      std::vector<T> buf = std::move(free_.back());
      free_.pop_back();
      if (buf.size() < n) {
        ++bulk_inits_;
        buf.assign(n, default_);
      }
      return buf;
    }
    ++bulk_inits_;
    return std::vector<T>(n, default_);
  }

  /// `touched` must cover every index whose value may differ from the
  /// default; duplicate entries are fine.
  void Release(std::vector<T> buf, std::span<const VertexId> touched) {
    for (VertexId v : touched) buf[v] = default_;
    ReleaseClean(std::move(buf));
  }

  /// For buffers the caller already restored.
  void ReleaseClean(std::vector<T> buf) {
#if BCCS_DCHECK_IS_ON
    for (const T& x : buf) BCCS_DCHECK(x == default_) << "scratch buffer returned dirty";
#endif
    free_.push_back(std::move(buf));
  }

  std::uint64_t bulk_inits() const { return bulk_inits_; }
  std::uint64_t acquires() const { return acquires_; }

 private:
  T default_;
  std::vector<std::vector<T>> free_;
  std::uint64_t bulk_inits_ = 0;
  std::uint64_t acquires_ = 0;
};

/// Epoch-stamped single-source distance array.
///
/// Reset() starts a new epoch in O(1); entries whose stamp is stale read as
/// kInfDistance. The map also carries the scratch that BfsDistances and the
/// deletion repair (query_distance.h) work in: per-level worklists, left
/// empty between calls, and a per-vertex mark, left all zero. Both are
/// restored over what a call touched, so only a Reset() that grows the map
/// costs O(n).
class DistanceMap {
 public:
  void Reset(std::size_t n) {
    if (slots_.size() < n) {
      ++bulk_inits_;
      slots_.resize(n, Slot{});
      mark_.resize(n, 0);
    }
    if (++epoch_ == 0) {
      // Stamp wrap-around: without this bulk re-init, entries stamped in the
      // old epoch 0 would read as fresh again. The O(n) fill is counted as a
      // bulk init (it happens once per 2^32 resets).
      ++bulk_inits_;
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
    ++resets_;
  }

  /// Test hook: jumps the epoch to its maximum so the next Reset() exercises
  /// the uint32 wrap path.
  void ForceEpochWrapForTest() { epoch_ = std::numeric_limits<std::uint32_t>::max(); }

  std::uint32_t Get(VertexId v) const {
    return slots_[v].stamp == epoch_ ? slots_[v].dist : kInfDistance;
  }

  void Set(VertexId v, std::uint32_t d) { slots_[v] = Slot{epoch_, d}; }
  void SetUnreachable(VertexId v) { Set(v, kInfDistance); }

  /// Scratch worklist for distance level `d` (grows the level array, so
  /// fetch the highest level first when holding several references).
  std::vector<VertexId>& Worklist(std::uint32_t d) {
    if (d >= worklists_.size()) worklists_.resize(d + 1);
    return worklists_[d];
  }
  /// Scratch per-vertex mark, sized by Reset().
  std::vector<char>& Marks() { return mark_; }

  std::uint64_t bulk_inits() const { return bulk_inits_; }
  std::uint64_t resets() const { return resets_; }

 private:
  // Stamp and value side by side: one cache line per lookup.
  struct Slot {
    std::uint32_t stamp = 0;
    std::uint32_t dist = 0;
  };

  std::uint32_t epoch_ = 0;
  std::vector<Slot> slots_;
  std::vector<char> mark_;
  std::vector<std::vector<VertexId>> worklists_;
  std::uint64_t bulk_inits_ = 0;
  std::uint64_t resets_ = 0;
};

/// Lazy max-bucket queue over per-vertex query distances, replacing the
/// per-round O(|members|) farthest-vertex scan of the peeling engine.
///
/// Query distances only grow during peeling (deletions never shorten
/// paths), so every stale bucket entry sits below the vertex's current
/// level and is discarded lazily when its bucket is inspected. Each
/// Update() that changes a value pushes one entry, so total queue work is
/// proportional to the number of distance changes, not to rounds * n.
class PeelQueue {
 public:
  void Reset(std::size_t n) {
    if (qd_.size() < n) {
      ++bulk_inits_;
      qd_.resize(n, 0);
      stamp_.resize(n, 0);
    }
    for (std::uint32_t d = 0; d < buckets_.size() && d <= max_level_; ++d) buckets_[d].clear();
    inf_.clear();
    max_level_ = 0;
    if (++epoch_ == 0) {  // see DistanceMap::Reset — wrap forces a bulk re-init
      ++bulk_inits_;
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    ++resets_;
  }

  /// Test hook: jumps the epoch to its maximum so the next Reset() exercises
  /// the uint32 wrap path.
  void ForceEpochWrapForTest() { epoch_ = std::numeric_limits<std::uint32_t>::max(); }

  /// Records v's current query distance; queues v at its new level. No-op
  /// when the stored value is unchanged (so duplicate entries per level are
  /// impossible and pops need no dedup pass).
  void Update(VertexId v, std::uint32_t qd) {
    if (stamp_[v] == epoch_ && qd_[v] == qd) return;
    stamp_[v] = epoch_;
    qd_[v] = qd;
    Push(v, qd);
  }

  /// Re-queues a vertex previously popped but not deleted (single-delete
  /// mode returns the untouched remainder of a batch).
  void Requeue(VertexId v) {
    BCCS_DCHECK_EQ(stamp_[v], epoch_) << "Requeue of a vertex not seen this epoch";
    Push(v, qd_[v]);
  }

  /// Collects every alive vertex at the current maximum query distance into
  /// `batch` and reports that distance in `level`. Vertices for which
  /// `is_query` holds count toward the level and stay queued but are not
  /// added to the batch (they are never deleted). Popped batch entries
  /// leave the queue. Returns false when no alive queued vertex remains.
  template <typename IsQuery>
  bool PopFarthest(const std::vector<char>& alive, IsQuery is_query,
                   std::vector<VertexId>* batch, std::uint32_t* level) {
    batch->clear();
    if (DrainLevel(&inf_, alive, is_query, batch)) {
      *level = kInfDistance;
      return true;
    }
    // Push keeps buckets_ sized past max_level_, so a non-empty bucket
    // array is the only precondition for the walk.
    if (buckets_.empty()) return false;
    while (true) {
      while (max_level_ > 0 && buckets_[max_level_].empty()) --max_level_;
      if (DrainLevel(&buckets_[max_level_], alive, is_query, batch)) {
        *level = max_level_;
        return true;
      }
      if (max_level_ == 0) return false;
      --max_level_;
    }
  }

  std::uint64_t bulk_inits() const { return bulk_inits_; }
  std::uint64_t resets() const { return resets_; }

 private:
  void Push(VertexId v, std::uint32_t qd) {
    if (qd == kInfDistance) {
      inf_.push_back(v);
      return;
    }
    if (qd >= buckets_.size()) buckets_.resize(qd + 1);
    buckets_[qd].push_back(v);
    if (qd > max_level_) max_level_ = qd;
  }

  std::uint32_t StoredQd(VertexId v) const { return stamp_[v] == epoch_ ? qd_[v] : kInfDistance; }

  // Moves the level's valid non-query entries into `batch`, keeps valid
  // query entries queued, drops stale/dead entries. True if the level held
  // any valid entry.
  template <typename IsQuery>
  bool DrainLevel(std::vector<VertexId>* entries, const std::vector<char>& alive,
                  IsQuery is_query, std::vector<VertexId>* batch) {
    const std::uint32_t this_level =
        entries == &inf_ ? kInfDistance : static_cast<std::uint32_t>(max_level_);
    bool any_query = false;
    std::size_t keep = 0;
    for (VertexId v : *entries) {
      if (!alive[v] || StoredQd(v) != this_level) continue;  // dead or moved: drop
      if (is_query(v)) {
        (*entries)[keep++] = v;
        any_query = true;
      } else {
        batch->push_back(v);
      }
    }
    entries->resize(keep);
    return any_query || !batch->empty();
  }

  std::uint32_t epoch_ = 0;
  std::uint32_t max_level_ = 0;
  std::vector<std::uint32_t> qd_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::vector<VertexId>> buckets_;
  std::vector<VertexId> inf_;
  std::uint64_t bulk_inits_ = 0;
  std::uint64_t resets_ = 0;
};

/// Per-thread scratch state for the whole query pipeline (Find-G0, BFS
/// distances, butterfly counting, candidate core maintenance, peeling).
///
/// One workspace serves one query at a time; the batch engine keeps one per
/// worker thread. All structures reuse capacity and reset in O(touched), so
/// after the first query of a given size the steady state performs no
/// O(n)-sized allocation or fill — Stats().bulk_inits stays flat, which the
/// workspace tests assert.
class QueryWorkspace {
 public:
  // Both out-of-line: PeelButterflyCounter is only forward-declared here.
  QueryWorkspace();
  ~QueryWorkspace();
  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;

  ScratchPool<char>& CharPool() { return char_pool_; }
  ScratchPool<std::uint32_t>& U32ZeroPool() { return u32_zero_pool_; }
  ScratchPool<std::uint32_t>& U32InfPool() { return u32_inf_pool_; }
  ScratchPool<std::uint64_t>& U64ZeroPool() { return u64_zero_pool_; }
  ScratchPool<double>& DoubleInfPool() { return double_inf_pool_; }

  DistanceMap* AcquireDistance();
  void ReleaseDistance(DistanceMap* dm);

  PeelQueue& peel_queue() { return peel_queue_; }
  CoreScratch& core_scratch() { return core_scratch_; }

  /// Wedge-counter scratch for butterfly counting: `WedgePaths()` is
  /// maintained all-zero (its users reset the entries they touch via
  /// `WedgeTouched()`).
  std::vector<std::uint32_t>& WedgePaths(std::size_t n) {
    if (wedge_paths_.size() < n) {
      ++local_bulk_inits_;
      wedge_paths_.assign(n, 0);
    }
    return wedge_paths_;
  }
  std::vector<VertexId>& WedgeTouched() { return wedge_touched_; }

  /// Stamp buffer + counter borrowed by LeaderButterflyUpdater so the
  /// Algorithm 7 scratch survives across queries. Called once per query;
  /// refreshes the stamps when the counter nears 32-bit wrap-around (a
  /// single query increments it far less than the guard band), mirroring
  /// the epoch-wrap handling of DistanceMap/PeelQueue.
  std::vector<std::uint32_t>* LeaderStamp(std::size_t n) {
    constexpr std::uint32_t kWrapGuard = 0xc0000000u;
    if (leader_stamp_.size() < n) {
      ++local_bulk_inits_;
      leader_stamp_.assign(n, 0);
      leader_counter_ = 0;
    } else if (leader_counter_ >= kWrapGuard) {
      std::fill(leader_stamp_.begin(), leader_stamp_.end(), 0);
      leader_counter_ = 0;
    }
    return &leader_stamp_;
  }
  std::uint32_t* LeaderStampCounter() { return &leader_counter_; }

  /// Reusable vertex-id vectors (returned cleared, capacity persists).
  std::vector<VertexId>* AcquireIdVec();
  void ReleaseIdVec(std::vector<VertexId>* vec);

  /// Pooled incremental butterfly counters (the Online methods' validity
  /// mechanism): the counter's chi / position buffers come
  /// from this workspace's scratch pools and its heap vectors keep their
  /// capacity while parked, so steady-state peeling allocates nothing.
  /// ReleasePeelCounter returns the counter's buffers (idempotent with the
  /// counter's own Release) before parking it.
  PeelButterflyCounter* AcquirePeelCounter();
  void ReleasePeelCounter(PeelButterflyCounter* pc);

  /// Per-query deadline, stamped by the serving engine before dispatch and
  /// cleared (reset to unlimited) afterwards. Search engines poll it at
  /// peel-round granularity.
  void SetDeadline(Deadline d) { deadline_ = d; }
  const Deadline& deadline() const { return deadline_; }

  /// The epoch's label-coreness table, pinned by the serving engine for one
  /// query and cleared (null) afterwards, like the deadline. It must
  /// describe the graph the query runs on. Unrestricted Find-G0 reads
  /// automatic k and k-core membership from it instead of peeling; null
  /// means peel (direct library calls).
  void PinLabelCoreness(const LabelCorenessTable* table) { label_coreness_ = table; }
  const LabelCorenessTable* label_coreness() const { return label_coreness_; }

  WorkspaceStats Stats() const;

 private:
  ScratchPool<char> char_pool_{0};
  ScratchPool<std::uint32_t> u32_zero_pool_{0};
  ScratchPool<std::uint32_t> u32_inf_pool_{static_cast<std::uint32_t>(-1)};
  ScratchPool<std::uint64_t> u64_zero_pool_{0};
  ScratchPool<double> double_inf_pool_{std::numeric_limits<double>::infinity()};

  std::vector<std::unique_ptr<DistanceMap>> distance_free_;
  std::vector<std::unique_ptr<DistanceMap>> distance_used_;
  PeelQueue peel_queue_;
  CoreScratch core_scratch_;

  std::vector<std::uint32_t> wedge_paths_;
  std::vector<VertexId> wedge_touched_;
  std::vector<std::uint32_t> leader_stamp_;
  std::uint32_t leader_counter_ = 0;

  std::vector<std::unique_ptr<std::vector<VertexId>>> id_free_;
  std::vector<std::unique_ptr<std::vector<VertexId>>> id_used_;

  std::vector<std::unique_ptr<PeelButterflyCounter>> peel_counter_free_;
  std::vector<std::unique_ptr<PeelButterflyCounter>> peel_counter_used_;

  Deadline deadline_;
  const LabelCorenessTable* label_coreness_ = nullptr;
  std::uint64_t local_bulk_inits_ = 0;
};

}  // namespace bccs

#endif  // BCCS_BCC_WORKSPACE_H_
