#ifndef BCCS_EVAL_SERVE_ENGINE_H_
#define BCCS_EVAL_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "eval/admission_queue.h"
#include "eval/batch_runner.h"
#include "eval/result_cache.h"
#include "graph/graph_delta.h"
#include "graph/labeled_graph.h"
#include "graph/snapshot.h"

namespace bccs {

class Changelog;

/// The unified serving engine: every request — query or edge-update — enters
/// here, through the streaming serve loop. The life of a served item:
///
///   1. **Admission.** OpenStream() starts the persistent worker pool
///      draining an AdmissionQueue; Stream::Submit admits items — each a
///      QueryRequest (what to search for, which algorithm, how urgent, how
///      long it may run) or an UpdateRequest (an edge-update batch) — while
///      workers are already serving earlier ones. Items without an explicit
///      request id are assigned one (stable per engine: the i-th item of
///      the first stream gets 1 + i). RunStream()/Serve() are the
///      submit-everything-then-drain conveniences over the same loop.
///   2. **Epoch tagging.** Each admitted query is stamped with its *epoch
///      slot*: the number of updates admitted before it. The query will
///      execute against exactly that slot's published (graph, index) state,
///      so answers are bit-identical to a serialized replay of the
///      admission order no matter how execution interleaves.
///   3. **Scheduling.** Workers dequeue under the two-lane policy
///      (interactive ahead of bulk, anti-starvation aging every
///      (aging_period + 1)-th slot) with per-lane in-flight caps
///      (ServeOptions::caps): a saturating bulk backlog can occupy at most
///      caps.bulk workers, so interactive tail latency stays bounded.
///   4. **Planning.** Each claimed query is planned onto its method —
///      online / lp / l2p / mbcc. kL2pBcc without an index degrades to
///      LP-BCC (same model, no index). The per-query approx seed is derived
///      as `seed ^ request_id`, so sampled answers are bit-identical across
///      thread counts and claim orders.
///   5. **Execution.** The worker pins its epoch slot's state (a shared_ptr
///      copy — the state outlives any concurrent update publish), stamps
///      its QueryWorkspace with the request's deadline and the epoch's
///      label-coreness table, and runs the search;
///      an expired deadline yields the best valid partial answer with
///      SearchStats::timed_out set.
///   6. **Update preparation (copy-on-write epochs).** An UpdateRequest is
///      claimed by a worker as soon as the previous update has resolved and
///      *prepared off-thread* against its pinned base epoch — validation
///      (BuildGraphDelta), graph rebuild (ApplyGraphDelta), incremental
///      repair of the label-coreness table and of the index, when there is
///      one (LabelCorenessTable::ApplyUpdates, BcIndex::ApplyUpdates) —
///      while queries of older epochs keep draining on the other workers.
///      The new state is then published with a single swap; queries
///      admitted after the update become runnable and observe it. A rejected batch publishes the
///      unchanged state (epoch not incremented) and reports the reason in
///      its UpdateOutcome. Old epoch states are released as soon as their
///      last pinned query completes.
///   7. **Reporting.** Stream::Finish() (and the RunStream/Serve shims)
///      returns a BatchResult with per-item outputs in admission order:
///      communities/stats/latency for queries, UpdateOutcomes for updates,
///      per-lane sojourn percentiles, and the epoch each item executed in
///      (epoch_of). A query answered through a completion callback is not
///      kept: its Finish() community is empty (a long-lived stream would
///      otherwise hold every answer it ever served).

/// The paper's search variants as planner targets. kMbcc serves the
/// Section 7 multi-labeled model; the other three serve two-label queries.
enum class QueryMethod : std::uint8_t { kOnlineBcc, kLpBcc, kL2pBcc, kMbcc };

const char* Name(QueryMethod m);

/// A method-erased serving request: what to search for, which algorithm to
/// plan it onto, how urgent it is, and how long it may run.
struct QueryRequest {
  /// BccQuery for the two-label methods, MbccQuery for kMbcc. A request
  /// whose variant does not match its method is answered with an empty
  /// community (never dispatched onto the wrong engine).
  std::variant<BccQuery, MbccQuery> query;
  QueryMethod method = QueryMethod::kLpBcc;
  Lane lane = Lane::kBulk;
  /// Cooperative per-query deadline; 0 = none. Checked at peel-round
  /// granularity: an expired query returns its best valid intermediate
  /// community (possibly empty) with SearchStats::timed_out set.
  double deadline_seconds = 0;
  /// 0 = assigned by the engine (stable per engine instance: the i-th
  /// request of the first stream gets id 1 + i). Feeds the per-query
  /// approx seed derivation `seed ^ request_id`, so sampled answers are
  /// bit-identical across thread counts and claim orders.
  std::uint64_t request_id = 0;
  /// Two-label parameters (ignored by kMbcc).
  BccParams params;
  /// Multi-label parameters (kMbcc only).
  MbccParams mbcc_params;
};

/// An edge-update batch as a serving request (the third request kind, next
/// to two-label and multi-label queries): prepared off-thread against the
/// epoch current at its admission point and published as a new epoch —
/// queries ahead of it in the stream observe the pre-update epoch, queries
/// behind it the post-update epoch (DESIGN.md, serving contract 3).
struct UpdateRequest {
  /// Applied in order with sequential semantics (see BuildGraphDelta); the
  /// whole batch is one atomic epoch transition — it applies fully or, on a
  /// validation error, not at all.
  std::vector<EdgeUpdate> updates;
  /// Incremental-repair fallback thresholds for the coreness table and the
  /// index (label_incremental_cap applies with or without an index).
  UpdateRepairOptions repair;
};

/// One serving-stream item.
using ServeItem = std::variant<QueryRequest, UpdateRequest>;

/// Per-item completion notification of the streaming serve loop: what a
/// submitted item resolved to, delivered on the worker thread that executed
/// it the moment the result is written — the socket front-end's hook for
/// streaming each response back on its originating connection while the
/// stream is still admitting (instead of reporting everything at drain).
///
/// The pointers alias the stream's result slots: they are valid for the
/// duration of the callback only — a query's community is freed once its
/// callback returns, so copy what must outlive it. The callback must not
/// block — it runs inside a serving worker, so a slow
/// callback stalls one worker's dequeue loop.
struct ItemCompletion {
  /// Admission index within the stream (the Finish() result slot).
  std::size_t index = 0;
  std::uint64_t request_id = 0;
  /// Epoch the item executed in (queries) or produced (updates; a rejected
  /// update reports its unchanged base epoch).
  std::uint64_t epoch = 0;
  double seconds = 0;          // execution / preparation duration
  double sojourn_seconds = 0;  // admission -> completion
  bool is_update = false;
  // Queries (null for updates):
  const Community* community = nullptr;
  const SearchStats* stats = nullptr;
  // Updates (null for queries):
  const UpdateOutcome* outcome = nullptr;
};

/// Invoked on a worker thread when the item completes. Must be thread-safe
/// against other completions: items finish out of admission order and on
/// different workers concurrently.
using CompletionFn = std::function<void(const ItemCompletion&)>;

/// Engine-wide planning configuration: per-method search options plus the
/// streaming scheduler's knobs.
struct ServeOptions {
  SearchOptions online = OnlineBccOptions();
  SearchOptions lp = LpBccOptions();
  L2pOptions l2p;
  SearchOptions mbcc = LpBccOptions();
  /// Every (aging_period + 1)-th query dequeue goes to the oldest waiting
  /// bulk query even while interactive queries remain (0 disables aging).
  std::size_t aging_period = 8;
  /// Per-lane in-flight concurrency caps (0 = unlimited). caps.bulk = K
  /// bounds interactive tail latency under a saturating bulk backlog: bulk
  /// occupies at most K workers no matter how deep its queue grows.
  AdmissionCaps caps;
  /// Result-cache entry budget (0 = caching off). When on, cacheable
  /// queries — no deadline, effective approx disabled for their method —
  /// consult the epoch-keyed ResultCache before planning; a hit is
  /// bit-identical to re-executing at the query's pinned epoch (DESIGN.md
  /// serving contract 6).
  std::size_t result_cache_entries = 0;
  /// Byte budget for the index's lazily faulted pair-butterfly blocks
  /// (0 = unbounded). Applied to the serving index at engine construction
  /// and carried across epoch repairs; materialized/snapshot-loaded pairs
  /// are pinned and exempt.
  std::size_t pair_cache_bytes = 0;
};

/// Plans method-erased requests onto the right search algorithm and
/// executes them on a shared BatchRunner pool through the streaming
/// admission queue; owns the copy-on-write epoch state for dynamic graphs
/// (see the lifecycle above).
///
/// This is the single dispatch path for all four methods — the
/// BatchRunner::Run*Batch entry points and Serve() are thin shims over
/// OpenStream/RunStream.
///
/// One stream (or Serve call) at a time per engine: the stream occupies the
/// runner's worker pool until finished.
class ServeEngine {
 public:
  /// Non-owning: `g` (and `index`, when given) must outlive the engine.
  /// After an UpdateRequest the engine serves its own updated graph/index;
  /// the originals are never modified.
  ServeEngine(BatchRunner& runner, const LabeledGraph& g, const BcIndex* index = nullptr,
              ServeOptions opts = {});

  /// Owning: shares the graph (and index) with the caller — the natural fit
  /// for a SnapshotBundle. `index` may be null (kL2pBcc degrades to LP).
  ServeEngine(BatchRunner& runner, std::shared_ptr<const LabeledGraph> g,
              std::shared_ptr<const BcIndex> index, ServeOptions opts = {});

  ~ServeEngine();

  /// A live serving session: Submit admits items while the worker pool is
  /// already draining earlier ones; Finish closes admission, drains
  /// gracefully, and returns the per-item results in admission order.
  /// Submit is multi-producer: any number of threads may admit concurrently
  /// (each connection of the socket front-end is one producer), and the
  /// admission order — the order that fixes epoch slots, request ids, and
  /// the serialized-replay equivalence — is the order the submissions win
  /// the stream lock. Items submitted from ONE thread keep their program
  /// order, so a connection's own updates are always ordered before its
  /// later queries. Finish (and the destructor) must not race Submit: stop
  /// every producer first. The engine (and its BatchRunner) must outlive
  /// the Stream — a Stream moved past its engine's lifetime dangles.
  class Stream {
   public:
    Stream(Stream&&) noexcept;
    Stream& operator=(Stream&&) noexcept;
    ~Stream();

    /// Admits one item; returns the request id it will execute under.
    std::uint64_t Submit(ServeItem item);

    /// Admits one item with a per-item completion callback, invoked on the
    /// executing worker the moment the result lands (streaming completions:
    /// the caller hears about each item as it finishes, not at drain).
    std::uint64_t Submit(ServeItem item, CompletionFn on_complete);
    /// Items admitted so far.
    std::size_t Submitted() const;
    /// Closes admission, waits for the drain, and collects the results.
    /// Answers delivered through a completion callback are not kept: such a
    /// query's `communities` slot is empty (its stats and timings remain).
    BatchResult Finish();

   private:
    friend class ServeEngine;
    explicit Stream(std::unique_ptr<struct StreamState> state);
    std::unique_ptr<struct StreamState> state_;
  };

  /// Opens a stream: the runner's workers start draining immediately
  /// (behind a pump thread, so this caller stays free to Submit) and block
  /// on the admission queue until items arrive. Opening a second stream —
  /// or calling RunStream/Serve — while one is open aborts with a message
  /// (the shared worker pool cannot run two drains; the failure mode would
  /// otherwise be a silent deadlock). The same guard lives on BatchRunner
  /// itself, so a *different* engine sharing this runner aborts too.
  Stream OpenStream();

  /// Submit-everything-then-finish convenience: admits all items, then
  /// drains on the calling thread (no pump thread — the items are known up
  /// front, so there is nothing to overlap admission with). Update
  /// preparation still interleaves with old-epoch queries on the pool.
  BatchResult RunStream(std::span<const ServeItem> items);

  /// Compatibility shim over RunStream (the historical batch entry point).
  BatchResult Serve(std::span<const ServeItem> items);

  /// Query-only convenience shim.
  BatchResult Serve(std::span<const QueryRequest> requests);

  /// Current epoch (starts at 1; each applied UpdateRequest increments it).
  std::uint64_t epoch() const;

  /// The newest published epoch's graph and index (index may be null).
  /// graph()/index() are valid until the next applied update; callers
  /// holding across updates should copy the shared_ptrs via
  /// graph_ptr()/index_ptr().
  const LabeledGraph& graph() const;
  const BcIndex* index() const;
  std::shared_ptr<const LabeledGraph> graph_ptr() const;
  std::shared_ptr<const BcIndex> index_ptr() const;

  const ServeOptions& options() const { return opts_; }

  /// Durable serving: every applied UpdateRequest is appended to `log`
  /// before its new epoch publishes — append and publish happen together
  /// under the log's commit lock, so an UpdateOutcome with applied=true IS
  /// the durable acknowledgment (durable per the log's fsync policy), and a
  /// compactor capturing state under the same lock sees exactly the
  /// appended records. An append failure rejects the batch: the epoch does
  /// not advance and the outcome reports the error. `stamp` is the
  /// source-graph identity written with each record (what the snapshot
  /// represents after replay). `log` must outlive the engine; pass nullptr
  /// to detach. Call while no stream is open.
  void AttachDurability(Changelog* log, const SourceGraphInfo& stamp = {});
  Changelog* durability_log() const { return durability_log_; }

  /// Result-cache counters (all-zero when caching is off).
  bool result_cache_enabled() const { return result_cache_ != nullptr; }
  ResultCacheStats result_cache_stats() const;

  /// Pair block-cache counters of the newest published index (all-zero when
  /// the engine serves without an index).
  BlockCacheStats pair_cache_stats() const;

 private:
  friend struct StreamState;

  /// One published epoch: an immutable graph, its label-coreness table and
  /// an optional index. Queries pin the state of their admission-time slot;
  /// updates build slot u+1 from slot u. `coreness` is always set: the
  /// index's own table when there is an index, else one the engine built
  /// (constructor) or repaired (PrepareUpdate). Workers pin it into the
  /// query's workspace, so unrestricted Find-G0 reads automatic k and k-core
  /// membership from it instead of peeling.
  struct EpochState {
    std::shared_ptr<const LabeledGraph> graph;
    std::shared_ptr<const LabelCorenessTable> coreness;
    std::shared_ptr<const BcIndex> index;
    std::uint64_t epoch = 0;
  };

  /// The labels an applied update repaired, for result-cache invalidation:
  /// labels with intra-label edge updates and canonical (first < second)
  /// label pairs with cross-label updates. Sorted, deduped.
  struct RepairTouch {
    std::vector<Label> intra;
    std::vector<std::pair<Label, Label>> cross;
  };

  std::unique_ptr<struct StreamState> MakeStreamState();
  void Dispatch(const QueryRequest& req, std::uint64_t request_id, const LabeledGraph& g,
                const BcIndex* index, QueryWorkspace& ws, Community* community,
                SearchStats* stats) const;
  /// True when the request may consult/populate the result cache: variant
  /// matches method, no deadline (a timed-out partial answer is
  /// timing-dependent), and the method's effective approx sampling is off
  /// (per-query seeds make sampled answers request-id-dependent).
  bool CacheableRequest(const QueryRequest& req, bool has_index) const;
  /// Validates and prepares `req` against `base` (off-thread safe: touches
  /// no engine state) and returns the successor state — `base` itself when
  /// the batch is rejected. `touch`, when non-null, receives the repaired
  /// labels of an applied batch.
  EpochState PrepareUpdate(const EpochState& base, const UpdateRequest& req,
                           UpdateOutcome* outcome, RepairTouch* touch = nullptr) const;
  void RunWorker(StreamState& state, QueryWorkspace& ws);

  BatchRunner* runner_;
  ServeOptions opts_;
  /// Epoch-keyed query-result cache; null when result_cache_entries == 0.
  /// Engine-lifetime (not per stream): entries persist across streams, and
  /// NoteRepairs keeps them exact across epochs.
  std::unique_ptr<ResultCache> result_cache_;
  Changelog* durability_log_ = nullptr;  // non-owning; see AttachDurability
  SourceGraphInfo durability_stamp_;
  mutable Mutex state_mutex_;
  /// The published head: the newest epoch's (graph, index).
  EpochState current_ GUARDED_BY(state_mutex_);
  std::atomic<std::uint64_t> next_request_id_{1};
  /// One stream at a time: the worker pool cannot run two drains. Set by
  /// MakeStreamState, cleared by Stream::Finish.
  std::atomic<bool> stream_open_{false};
};

}  // namespace bccs

#endif  // BCCS_EVAL_SERVE_ENGINE_H_
