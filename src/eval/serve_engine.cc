#include "eval/serve_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/validate.h"
#include "eval/timer.h"
#include "graph/changelog.h"
#include "graph/graph_delta.h"

namespace bccs {

const char* Name(QueryMethod m) {
  switch (m) {
    case QueryMethod::kOnlineBcc: return "online";
    case QueryMethod::kLpBcc: return "lp";
    case QueryMethod::kL2pBcc: return "l2p";
    case QueryMethod::kMbcc: return "mbcc";
  }
  return "?";
}

namespace {

/// Wraps a caller-owned object in a non-owning shared_ptr (the legacy
/// constructor's lifetime contract: the caller keeps it alive).
template <typename T>
std::shared_ptr<const T> Unowned(const T* p) {
  return std::shared_ptr<const T>(p, [](const T*) {});
}

// Per-query approx seed derivation: deterministic in the request id, so a
// sampled query's whole schedule is independent of which worker claims it.
SearchOptions SeededOptions(const SearchOptions& base, std::uint64_t request_id) {
  SearchOptions o = base;
  if (o.approx.enabled) o.approx.seed ^= request_id;
  return o;
}

/// Canonical cache identity of a cacheable request, plus the label set its
/// answer depends on (a BCC answer is a function of the induced subgraph of
/// its query labels — the structural fact the result cache's invalidation
/// rests on). Returns false for malformed requests (wrong variant,
/// out-of-range vertices) — those are answered, but never cached.
bool BuildCacheKey(const QueryRequest& req, const LabeledGraph& g, ResultCacheKey* key,
                   std::vector<Label>* labels) {
  key->method = static_cast<std::uint8_t>(req.method);
  labels->clear();
  if (req.method == QueryMethod::kMbcc) {
    const auto* q = std::get_if<MbccQuery>(&req.query);
    if (q == nullptr || q->vertices.empty()) return false;
    for (VertexId v : q->vertices) {
      if (v >= g.NumVertices()) return false;
    }
    key->vertices = q->vertices;
    key->ks = req.mbcc_params.k;
    key->b = req.mbcc_params.b;
    for (VertexId v : q->vertices) labels->push_back(g.LabelOf(v));
  } else {
    const auto* q = std::get_if<BccQuery>(&req.query);
    if (q == nullptr) return false;
    if (q->ql >= g.NumVertices() || q->qr >= g.NumVertices()) return false;
    key->vertices = {q->ql, q->qr};
    key->ks = {req.params.k1, req.params.k2};
    key->b = req.params.b;
    labels->push_back(g.LabelOf(q->ql));
    labels->push_back(g.LabelOf(q->qr));
  }
  std::sort(labels->begin(), labels->end());
  labels->erase(std::unique(labels->begin(), labels->end()), labels->end());
  return true;
}

}  // namespace

/// All mutable state of one stream. Producers (Stream::Submit — any number
/// of threads, one per connection in the socket front-end) grow the
/// per-item containers under `mutex`; workers take stable pointers to their
/// exclusive slots under the same mutex and then execute unlocked (std::deque
/// growth never moves existing elements). The admission queue provides the
/// cross-thread ordering: a worker only learns an index from Pop(), which
/// happens-after the producer's bookkeeping for that index — admission into
/// the queue happens under `mutex` too, so the queue's dense admission
/// indices always match the container slots even with racing producers.
struct StreamState {
  StreamState(ServeEngine* e, std::size_t aging_period, AdmissionCaps caps)
      : engine(e), queue(aging_period, caps) {}

  ServeEngine* engine;
  AdmissionQueue queue;
  Timer wall;           // stream-open reference clock (admit/sojourn times)
  std::thread pump;     // blocks in BatchRunner::Run while workers drain

  Mutex mutex;  // guards every container below
  struct Slot {
    std::uint64_t request_id = 0;
    double admit_seconds = 0;
    int lane = -1;  // -1 = update slot (excluded from query latency)
  };
  std::deque<ServeItem> items GUARDED_BY(mutex);
  std::deque<Slot> slots GUARDED_BY(mutex);
  std::deque<Community> communities GUARDED_BY(mutex);
  std::deque<SearchStats> stats GUARDED_BY(mutex);
  std::deque<double> seconds GUARDED_BY(mutex);
  std::deque<double> sojourn GUARDED_BY(mutex);
  std::deque<std::uint64_t> epoch_of GUARDED_BY(mutex);
  // One per update, by ordinal.
  std::deque<UpdateOutcome> update_outcomes GUARDED_BY(mutex);
  // Per-item completion callbacks (empty function = none). Moved out by the
  // executing worker and invoked exactly once, outside every lock.
  std::deque<CompletionFn> callbacks GUARDED_BY(mutex);

  /// Copy-on-write epoch history: history[s] is the state observed by
  /// queries admitted after s updates. Slot 0 is published at open; slot
  /// u+1 is published when the u-th update resolves. `pending` counts
  /// admitted-but-not-completed queries pinned to the slot; a drained slot
  /// older than the newest published one releases its shared_ptrs (the
  /// copy-on-write garbage collection).
  struct HistorySlot {
    ServeEngine::EpochState state;
    std::size_t pending = 0;
  };
  std::deque<HistorySlot> history GUARDED_BY(mutex);
  // Number of published history slots.
  std::size_t published GUARDED_BY(mutex) = 1;
  // First slot that may still hold state.
  std::size_t release_cursor GUARDED_BY(mutex) = 0;
  std::size_t updates_admitted GUARDED_BY(mutex) = 0;
  /// Set by Finish (which must not race Submit — stop every producer
  /// first); atomic so concurrent producers' contract-violation check in
  /// Submit reads a coherent value rather than a torn one.
  std::atomic<bool> finished{false};
  /// Captured by BatchRunner::Run before the pool is released — reading
  /// the workspaces after Run returns would race the next job on a shared
  /// runner.
  WorkspaceStats drain_stats;

  /// Releases drained old epochs. Slots gain pending queries only while
  /// they are the newest admitted slot, so a drained slot behind the
  /// published head can never be pinned again.
  void ReleaseDrainedHistory() REQUIRES(mutex) {
    while (release_cursor + 1 < published && history[release_cursor].pending == 0) {
      history[release_cursor].state = ServeEngine::EpochState{};
      ++release_cursor;
    }
  }
};

ServeEngine::ServeEngine(BatchRunner& runner, const LabeledGraph& g, const BcIndex* index,
                         ServeOptions opts)
    : ServeEngine(runner, Unowned(&g), index != nullptr ? Unowned(index) : nullptr,
                  std::move(opts)) {}

ServeEngine::ServeEngine(BatchRunner& runner, std::shared_ptr<const LabeledGraph> g,
                         std::shared_ptr<const BcIndex> index, ServeOptions opts)
    : runner_(&runner), opts_(std::move(opts)) {
  current_.graph = std::move(g);
  current_.index = std::move(index);
  // With an index the epoch shares its coreness table; without one, one
  // LabelCoreness pass builds it.
  current_.coreness = current_.index != nullptr
                          ? current_.index->coreness_table()
                          : std::make_shared<const LabelCorenessTable>(*current_.graph);
  current_.epoch = 1;
  if (opts_.result_cache_entries > 0) {
    result_cache_ = std::make_unique<ResultCache>(opts_.result_cache_entries);
  }
  if (opts_.pair_cache_bytes > 0 && current_.index != nullptr) {
    current_.index->SetPairCacheBudget(opts_.pair_cache_bytes);
  }
}

ServeEngine::~ServeEngine() = default;

void ServeEngine::AttachDurability(Changelog* log, const SourceGraphInfo& stamp) {
  durability_log_ = log;
  durability_stamp_ = stamp;
}

std::uint64_t ServeEngine::epoch() const {
  MutexLock lock(state_mutex_);
  return current_.epoch;
}

const LabeledGraph& ServeEngine::graph() const {
  MutexLock lock(state_mutex_);
  return *current_.graph;
}

const BcIndex* ServeEngine::index() const {
  MutexLock lock(state_mutex_);
  return current_.index.get();
}

std::shared_ptr<const LabeledGraph> ServeEngine::graph_ptr() const {
  MutexLock lock(state_mutex_);
  return current_.graph;
}

std::shared_ptr<const BcIndex> ServeEngine::index_ptr() const {
  MutexLock lock(state_mutex_);
  return current_.index;
}

ResultCacheStats ServeEngine::result_cache_stats() const {
  return result_cache_ != nullptr ? result_cache_->Stats() : ResultCacheStats{};
}

BlockCacheStats ServeEngine::pair_cache_stats() const {
  const auto index = index_ptr();
  return index != nullptr ? index->PairCacheStats() : BlockCacheStats{};
}

bool ServeEngine::CacheableRequest(const QueryRequest& req, bool has_index) const {
  if (req.deadline_seconds > 0) return false;
  switch (req.method) {
    case QueryMethod::kOnlineBcc:
      return !opts_.online.approx.enabled;
    case QueryMethod::kLpBcc:
      return !opts_.lp.approx.enabled;
    case QueryMethod::kL2pBcc:
      // Matches Dispatch: without an index, l2p degrades to LP and runs
      // under the LP options' approx setting.
      return has_index ? !opts_.l2p.search.approx.enabled : !opts_.lp.approx.enabled;
    case QueryMethod::kMbcc:
      return !opts_.mbcc.approx.enabled;
  }
  return false;
}

void ServeEngine::Dispatch(const QueryRequest& req, std::uint64_t request_id,
                           const LabeledGraph& g, const BcIndex* index, QueryWorkspace& ws,
                           Community* community, SearchStats* stats) const {
  if (req.method == QueryMethod::kMbcc) {
    const auto* q = std::get_if<MbccQuery>(&req.query);
    if (q == nullptr) return;  // variant/method mismatch: empty answer
    *community = MbccSearch(g, *q, req.mbcc_params, SeededOptions(opts_.mbcc, request_id),
                            stats, nullptr, &ws);
    return;
  }
  const auto* q = std::get_if<BccQuery>(&req.query);
  if (q == nullptr) return;
  switch (req.method) {
    case QueryMethod::kOnlineBcc:
      *community =
          BccSearch(g, *q, req.params, SeededOptions(opts_.online, request_id), stats, &ws);
      break;
    case QueryMethod::kLpBcc:
      *community =
          BccSearch(g, *q, req.params, SeededOptions(opts_.lp, request_id), stats, &ws);
      break;
    case QueryMethod::kL2pBcc:
      if (index != nullptr) {
        L2pOptions o = opts_.l2p;
        o.search = SeededOptions(o.search, request_id);
        *community = L2pBcc(g, *index, *q, req.params, o, stats, &ws);
      } else {
        // Planned degradation: no index in this process, serve via LP.
        *community =
            BccSearch(g, *q, req.params, SeededOptions(opts_.lp, request_id), stats, &ws);
      }
      break;
    case QueryMethod::kMbcc:
      break;  // handled above
  }
}

ServeEngine::EpochState ServeEngine::PrepareUpdate(const EpochState& base,
                                                   const UpdateRequest& req,
                                                   UpdateOutcome* outcome,
                                                   RepairTouch* touch) const {
  std::string error;
  const auto delta = BuildGraphDelta(*base.graph, req.updates, &error);
  if (!delta) {
    // Rejected: the successor epoch is the base itself — queries admitted
    // after this update observe the unchanged graph.
    outcome->error = error;
    return base;
  }
  if (touch != nullptr) {
    // Labels never change across edge updates, so the base graph's labeling
    // identifies exactly which label groups (and cross pairs) the batch
    // repairs — the result cache invalidates only those.
    for (const auto* edges : {&delta->inserts, &delta->deletes}) {
      for (const Edge& e : *edges) {
        const Label a = base.graph->LabelOf(e.u);
        const Label b = base.graph->LabelOf(e.v);
        if (a == b) {
          touch->intra.push_back(a);
        } else {
          touch->cross.push_back(std::minmax(a, b));
        }
      }
    }
    std::sort(touch->intra.begin(), touch->intra.end());
    touch->intra.erase(std::unique(touch->intra.begin(), touch->intra.end()),
                       touch->intra.end());
    std::sort(touch->cross.begin(), touch->cross.end());
    touch->cross.erase(std::unique(touch->cross.begin(), touch->cross.end()),
                       touch->cross.end());
  }
  EpochState next;
  next.graph = std::make_shared<const LabeledGraph>(ApplyGraphDelta(*base.graph, *delta));
  next.epoch = base.epoch + 1;
  outcome->inserts = delta->inserts.size();
  outcome->deletes = delta->deletes.size();
  // Repair against the pinned base graph/index/table (kept alive by the
  // epoch history while old-epoch queries drain). Either way the coreness
  // goes through LabelCorenessTable::ApplyUpdates: the index repairs its
  // own table, and an index-less epoch repairs the engine's.
  if (base.index != nullptr) {
    next.index = base.index->ApplyUpdates(*next.graph, *delta, req.repair, &outcome->repair);
    next.coreness = next.index->coreness_table();
  } else {
    next.coreness = base.coreness->ApplyUpdates(*next.graph, *delta,
                                                req.repair.label_incremental_cap,
                                                &outcome->repair);
  }
#if BCCS_DCHECK_IS_ON
  {
    const ValidationResult audit = ValidateLabelCoreness(*next.graph, *next.coreness);
    BCCS_DCHECK(audit.ok) << "repaired label coreness: " << audit.reason;
  }
#endif
  outcome->applied = true;
  return next;
}

void ServeEngine::RunWorker(StreamState& state, QueryWorkspace& ws) {
  AdmissionQueue::Ticket t;
  while (state.queue.Pop(&t)) {
    if (t.kind == AdmissionQueue::Ticket::Kind::kUpdate) {
      const std::size_t u = t.update_ordinal;
      EpochState base;
      const ServeItem* item;
      double admit_seconds;
      std::uint64_t request_id;
      UpdateOutcome* outcome;
      CompletionFn done;
      {
        MutexLock lock(state.mutex);
        base = state.history[u].state;
        item = &state.items[t.index];
        admit_seconds = state.slots[t.index].admit_seconds;
        request_id = state.slots[t.index].request_id;
        outcome = &state.update_outcomes[u];
        done = std::move(state.callbacks[t.index]);
      }
      outcome->item_index = t.index;
      Timer apply;
      RepairTouch touch;
      EpochState next = PrepareUpdate(base, std::get<UpdateRequest>(*item), outcome, &touch);
      if (durability_log_ != nullptr && outcome->applied) {
        // The durable commit: changelog append and epoch publish happen
        // together under the log's commit lock, so the log and the
        // published head never disagree — and a compactor capturing state
        // under the same lock sees exactly the appended records. A failed
        // append rejects the batch; the un-durable state never publishes.
        const auto& update_req = std::get<UpdateRequest>(*item);
        MutexLock commit(durability_log_->commit_mutex());
        std::string err;
        if (!durability_log_->Append(
                std::span<const EdgeUpdate>(update_req.updates), durability_stamp_,
                &err)) {
          outcome->applied = false;
          outcome->error = "durability append failed: " + err;
          outcome->inserts = 0;
          outcome->deletes = 0;
          next = base;
        } else {
          MutexLock lock(state_mutex_);
          current_ = next;
        }
      } else {
        MutexLock lock(state_mutex_);
        current_ = next;
      }
      if (outcome->applied && result_cache_ != nullptr) {
        // Invalidate BEFORE the queue releases epoch-(u+1) queries (the
        // PublishUpdate below): any query that can observe the new graph
        // observes the repair marks first, so no stale entry can be served
        // at — or inserted above — the new epoch for a touched label set.
        result_cache_->NoteRepairs(touch.intra, touch.cross, next.epoch);
      }
      outcome->seconds = apply.Seconds();
      outcome->epoch = next.epoch;
      double update_sojourn;
      {
        MutexLock lock(state.mutex);
        state.history[u + 1].state = next;
        state.published = u + 2;
        state.ReleaseDrainedHistory();
        state.seconds[t.index] = outcome->seconds;
        update_sojourn = state.wall.Seconds() - admit_seconds;
        state.sojourn[t.index] = update_sojourn;
        state.epoch_of[t.index] = next.epoch;
      }
      // Resolve on the queue AFTER the history write: Pop()'s mutex
      // acquisition gives any worker that observes the resolution a
      // happens-before edge to the new state.
      state.queue.PublishUpdate();
      if (done) {
        // Streaming completion, after the publish: when the callback fires,
        // the new epoch is already observable by later admissions — an ack
        // the socket layer relays (and keeps for idempotent retries) is
        // never ahead of the state it describes.
        ItemCompletion c;
        c.index = t.index;
        c.request_id = request_id;
        c.epoch = outcome->epoch;
        c.seconds = outcome->seconds;
        c.sojourn_seconds = update_sojourn;
        c.is_update = true;
        c.outcome = outcome;
        done(c);
      }
      continue;
    }

    // Query: pin the admission-time epoch (the queue guarantees it is
    // published by now), then execute against it unlocked — a concurrent
    // update publish cannot invalidate the pinned shared_ptrs.
    EpochState pinned;
    const ServeItem* item;
    std::uint64_t request_id;
    double admit_seconds;
    Community* community;
    SearchStats* stats;
    CompletionFn done;
    {
      MutexLock lock(state.mutex);
      pinned = state.history[t.epoch_slot].state;
      item = &state.items[t.index];
      request_id = state.slots[t.index].request_id;
      admit_seconds = state.slots[t.index].admit_seconds;
      community = &state.communities[t.index];
      stats = &state.stats[t.index];
      done = std::move(state.callbacks[t.index]);
    }
    const QueryRequest& req = std::get<QueryRequest>(*item);
    ResultCacheKey cache_key;
    std::vector<Label> cache_labels;
    const bool cacheable = result_cache_ != nullptr &&
                           CacheableRequest(req, pinned.index != nullptr) &&
                           BuildCacheKey(req, *pinned.graph, &cache_key, &cache_labels);
    const auto lane_idx = static_cast<std::size_t>(req.lane);
    Timer exec;
    const bool cache_hit =
        cacheable &&
        result_cache_->Lookup(cache_key, pinned.epoch, lane_idx, community, stats);
    if (!cache_hit) {
      if (req.deadline_seconds > 0) ws.SetDeadline(Deadline::After(req.deadline_seconds));
      ws.PinLabelCoreness(pinned.coreness.get());
      Dispatch(req, request_id, *pinned.graph, pinned.index.get(), ws, community, stats);
      ws.PinLabelCoreness(nullptr);
      ws.SetDeadline(Deadline{});
      // Timed-out partial answers are timing-dependent, never cached (the
      // deadline gate above already excludes them; keep the belt with the
      // suspenders in case a search ever times out without a deadline).
      if (cacheable && !stats->timed_out) {
        result_cache_->Insert(cache_key, cache_labels, pinned.epoch, *community, *stats);
      }
    }
    const double exec_seconds = exec.Seconds();
    const std::uint64_t pinned_epoch = pinned.epoch;
    double query_sojourn;
    {
      MutexLock lock(state.mutex);
      state.seconds[t.index] = exec_seconds;
      query_sojourn = state.wall.Seconds() - admit_seconds;
      state.sojourn[t.index] = query_sojourn;
      state.epoch_of[t.index] = pinned.epoch;
      if (--state.history[t.epoch_slot].pending == 0) state.ReleaseDrainedHistory();
    }
    pinned = EpochState{};  // drop the pin before (not while) holding queue locks
    state.queue.CompleteQuery(t.lane);
    if (done) {
      // After CompleteQuery: the lane slot is free while the caller's
      // callback runs, so a slow consumer delays only this worker's next
      // dequeue, never the lane's concurrency budget.
      ItemCompletion c;
      c.index = t.index;
      c.request_id = request_id;
      c.epoch = pinned_epoch;
      c.seconds = exec_seconds;
      c.sojourn_seconds = query_sojourn;
      c.community = community;
      c.stats = stats;
      done(c);
      // The callback consumed the answer; keeping it until Finish would
      // grow a long-lived stream (the socket server's) with every request.
      std::vector<VertexId>().swap(community->vertices);
    }
  }
}

// ---------------------------------------------------------------------------
// Stream: the streaming session handle.
// ---------------------------------------------------------------------------

ServeEngine::Stream::Stream(std::unique_ptr<StreamState> state) : state_(std::move(state)) {}

ServeEngine::Stream::Stream(Stream&&) noexcept = default;

ServeEngine::Stream& ServeEngine::Stream::operator=(Stream&& other) noexcept {
  if (this != &other) {
    // Finish an unfinished target first — destroying its state outright
    // would run std::thread's destructor on the joinable pump
    // (std::terminate) and leak the engine's stream_open_ flag.
    if (state_ != nullptr && !state_->finished) Finish();
    state_ = std::move(other.state_);
  }
  return *this;
}

ServeEngine::Stream::~Stream() {
  if (state_ != nullptr && !state_->finished) Finish();
}

std::uint64_t ServeEngine::Stream::Submit(ServeItem item) {
  return Submit(std::move(item), CompletionFn());
}

std::uint64_t ServeEngine::Stream::Submit(ServeItem item, CompletionFn on_complete) {
  StreamState& s = *state_;
  if (s.finished.load(std::memory_order_acquire)) {
    // The worker pool has already been released; enqueueing would silently
    // drop the item while handing back a valid-looking request id.
    std::fprintf(stderr, "ServeEngine::Stream: Submit after Finish\n");
    std::abort();
  }
  const bool is_update = std::holds_alternative<UpdateRequest>(item);
  std::uint64_t id = 0;
  Lane lane = Lane::kBulk;
  {
    MutexLock lock(s.mutex);
    // Every item consumes one request id (updates too), drawn under the
    // stream lock so ids follow the admission order even with racing
    // producers — a query's id, and with it its approx seed, depends only
    // on its admission position, exactly as in a serialized replay.
    id = s.engine->next_request_id_.fetch_add(1);
    s.items.push_back(std::move(item));
    StreamState::Slot slot;
    slot.admit_seconds = s.wall.Seconds();
    if (const auto* q = std::get_if<QueryRequest>(&s.items.back())) {
      if (q->request_id != 0) id = q->request_id;
      lane = q->lane;
      slot.lane = static_cast<int>(q->lane);
      ++s.history[s.updates_admitted].pending;
    } else {
      s.update_outcomes.emplace_back();
      s.history.emplace_back();  // the slot this update will publish
      ++s.updates_admitted;
    }
    slot.request_id = id;
    s.slots.push_back(slot);
    s.communities.emplace_back();
    s.stats.emplace_back();
    s.seconds.push_back(0);
    s.sojourn.push_back(0);
    s.epoch_of.push_back(0);
    s.callbacks.push_back(std::move(on_complete));
    // Admit under the same lock (after the bookkeeping above): with
    // multiple producers the queue's dense admission index must be assigned
    // in the order the container slots were pushed, or a worker would read
    // another producer's item. Lock order stream mutex -> queue mutex;
    // workers never hold both (Pop returns before they take the stream
    // mutex), so the nesting is acyclic (DESIGN.md, serving contract 5).
    if (is_update) {
      s.queue.AdmitUpdate();
    } else {
      s.queue.AdmitQuery(lane);
    }
  }
  return id;
}

std::size_t ServeEngine::Stream::Submitted() const {
  MutexLock lock(state_->mutex);
  return state_->slots.size();
}

BatchResult ServeEngine::Stream::Finish() {
  StreamState& s = *state_;
  BatchResult out;
  if (s.finished) return out;
  s.queue.Close();
  if (s.pump.joinable()) s.pump.join();
  s.finished = true;
  const double wall_seconds = s.wall.Seconds();

  // Workers are gone (the pump join above is the synchronization point), but
  // the containers are GUARDED_BY the stream mutex — hold it (uncontended)
  // for the aggregation so the annotation holds here too.
  MutexLock lock(s.mutex);
#if BCCS_DCHECK_IS_ON
  {
    // The drained stream must leave the copy-on-write bookkeeping coherent:
    // every admitted query completed, so every slot behind the published
    // head is released and the head still holds state.
    EpochHistoryView view;
    view.published = s.published;
    view.release_cursor = s.release_cursor;
    view.updates_admitted = s.updates_admitted;
    for (const StreamState::HistorySlot& slot : s.history) {
      view.slots.push_back(
          {slot.state.epoch, slot.pending, slot.state.graph != nullptr});
    }
    const ValidationResult audit = ValidateEpochHistory(view);
    BCCS_DCHECK(audit.ok) << "epoch history audit: " << audit.reason;
  }
#endif
  const std::size_t count = s.slots.size();
  out.communities.assign(s.communities.begin(), s.communities.end());
  out.stats.assign(s.stats.begin(), s.stats.end());
  out.seconds.assign(s.seconds.begin(), s.seconds.end());
  out.sojourn_seconds.assign(s.sojourn.begin(), s.sojourn.end());
  out.epoch_of.assign(s.epoch_of.begin(), s.epoch_of.end());
  out.updates.assign(s.update_outcomes.begin(), s.update_outcomes.end());
  out.threads_used = s.engine->runner_->NumThreads();

  // The latency/qps summary describes query serving only — update slots
  // (whose seconds hold the preparation duration) would otherwise smear a
  // slow repair into the query percentiles the lane summaries exclude.
  std::vector<double> query_seconds;
  query_seconds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (s.slots[i].lane >= 0) query_seconds.push_back(out.seconds[i]);
  }
  out.latency = SummarizeLatency(query_seconds, wall_seconds);
  out.workspace_stats = s.drain_stats;
  out.result_cache_enabled = s.engine->result_cache_ != nullptr;
  out.result_cache = s.engine->result_cache_stats();
  // The newest published slot of this stream IS the engine's current state;
  // read it here (under s.mutex) rather than through the engine head to keep
  // the lock sets disjoint.
  if (const auto& head = s.history[s.published - 1].state; head.index != nullptr) {
    out.pair_cache = head.index->PairCacheStats();
  }
  for (const SearchStats& st : out.stats) out.timed_out += st.timed_out ? 1 : 0;

  std::vector<double> lane_sojourn;
  for (Lane lane : {Lane::kInteractive, Lane::kBulk}) {
    lane_sojourn.clear();
    for (std::size_t i = 0; i < count; ++i) {
      if (s.slots[i].lane == static_cast<int>(lane)) {
        lane_sojourn.push_back(out.sojourn_seconds[i]);
      }
    }
    if (lane_sojourn.empty()) continue;
    LaneSummary summary;
    summary.lane = lane;
    summary.queries = lane_sojourn.size();
    summary.latency = SummarizeLatency(lane_sojourn, wall_seconds);
    summary.max_inflight = s.queue.max_inflight(lane);
    out.lanes.push_back(summary);
  }
  // Release the engine only after every read of shared state above — a
  // stream opened the instant this clears must not race the aggregation.
  s.engine->stream_open_.store(false);
  return out;
}

std::unique_ptr<StreamState> ServeEngine::MakeStreamState() {
  if (stream_open_.exchange(true)) {
    // The alternative is a silent deadlock: two drains would clobber the
    // shared worker pool's job state and neither would ever complete.
    std::fprintf(stderr,
                 "ServeEngine: a stream is already open on this engine/runner "
                 "(one drain at a time)\n");
    std::abort();
  }
  auto state = std::make_unique<StreamState>(this, opts_.aging_period, opts_.caps);
  StreamState::HistorySlot slot0;
  {
    MutexLock lock(state_mutex_);
    slot0.state = current_;
  }
  MutexLock lock(state->mutex);
  state->history.push_back(std::move(slot0));
  return state;
}

ServeEngine::Stream ServeEngine::OpenStream() {
  auto state = MakeStreamState();
  // The pump thread parks the pool in the drain loop so the caller's thread
  // stays free to Submit while workers serve.
  StreamState* raw = state.get();
  state->pump = std::thread([this, raw] {
    runner_->Run(
        runner_->NumThreads(),
        [this, raw](std::size_t, QueryWorkspace& ws) { RunWorker(*raw, ws); },
        &raw->drain_stats);
  });
  return Stream(std::move(state));
}

BatchResult ServeEngine::RunStream(std::span<const ServeItem> items) {
  // All items are known up front: no pump thread — admit, close, and drain
  // on the calling thread, sparing the batch shims (and single-query tools)
  // a thread spawn+join per call.
  Stream stream(MakeStreamState());
  for (const ServeItem& item : items) stream.Submit(item);
  StreamState& s = *stream.state_;
  s.queue.Close();
  runner_->Run(
      runner_->NumThreads(),
      [this, &s](std::size_t, QueryWorkspace& ws) { RunWorker(s, ws); }, &s.drain_stats);
  return stream.Finish();
}

BatchResult ServeEngine::Serve(std::span<const ServeItem> items) { return RunStream(items); }

BatchResult ServeEngine::Serve(std::span<const QueryRequest> requests) {
  std::vector<ServeItem> items(requests.begin(), requests.end());
  return RunStream(std::span<const ServeItem>(items));
}

// ---------------------------------------------------------------------------
// Compatibility shims: the historical per-method batch entry points, now
// thin request builders over the unified engine (declared in batch_runner.h).
// ---------------------------------------------------------------------------

BatchResult BatchRunner::RunBccBatch(const LabeledGraph& g, std::span<const BccQuery> queries,
                                     const BccParams& params, const SearchOptions& opts) {
  ServeOptions so;
  so.online = opts;
  so.lp = opts;
  const QueryMethod method =
      opts.use_leader_pair ? QueryMethod::kLpBcc : QueryMethod::kOnlineBcc;
  ServeEngine engine(*this, g, nullptr, so);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = method;
    requests[i].params = params;
  }
  return engine.Serve(requests);
}

BatchResult BatchRunner::RunL2pBatch(const LabeledGraph& g, const BcIndex& index,
                                     std::span<const BccQuery> queries,
                                     const BccParams& params, const L2pOptions& opts) {
  ServeOptions so;
  so.l2p = opts;
  ServeEngine engine(*this, g, &index, so);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kL2pBcc;
    requests[i].params = params;
  }
  return engine.Serve(requests);
}

BatchResult BatchRunner::RunMbccBatch(const LabeledGraph& g,
                                      std::span<const MbccQuery> queries,
                                      const MbccParams& params, const SearchOptions& opts) {
  ServeOptions so;
  so.mbcc = opts;
  ServeEngine engine(*this, g, nullptr, so);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kMbcc;
    requests[i].mbcc_params = params;
  }
  return engine.Serve(requests);
}

}  // namespace bccs
