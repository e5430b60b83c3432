// Streaming serve loop: AdmissionQueue dequeue policy, per-lane in-flight
// caps, and the copy-on-write epoch layer. The load-bearing property is the
// acceptance criterion of the streaming refactor: RunStream with concurrent
// off-thread update preparation answers BIT-IDENTICALLY to a serialized
// replay of the same admission order. Synchronization throughout the loop is
// mutex/condvar based, so the multi-threaded stress tests here run clean
// under TSan and the `sanitize` ctest label exercises them under ASan+UBSan.

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "eval/admission_queue.h"
#include "eval/serve_engine.h"
#include "eval/query_gen.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"

namespace bccs {
namespace {

PlantedGraph MakeGraph(std::size_t communities = 5, std::uint64_t seed = 77) {
  PlantedConfig cfg;
  cfg.num_communities = communities;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  cfg.seed = seed;
  return GeneratePlanted(cfg);
}

std::vector<BccQuery> SampleQueries(const PlantedGraph& pg, std::size_t count) {
  QueryGenConfig qcfg;
  std::vector<GroundTruthQuery> gt = SampleGroundTruthQueries(pg, count, qcfg);
  std::vector<BccQuery> out;
  for (const auto& g : gt) out.push_back(g.query);
  return out;
}

// --------------------------------------------------------------------------
// AdmissionQueue: dequeue policy.
// --------------------------------------------------------------------------

// A single consumer sees interactive first (admission order within a lane),
// with the oldest bulk query aged into every (aging_period + 1)-th slot.
TEST(AdmissionQueueTest, SingleConsumerMatchesCompiledLaneOrder) {
  const Lane I = Lane::kInteractive;
  const Lane B = Lane::kBulk;
  struct Case {
    std::vector<Lane> lanes;
    std::size_t aging;
    std::vector<std::uint32_t> want;
  };
  const std::vector<Lane> mixed = {B, I, B, I, I, B, I, B};
  const std::vector<Lane> six_three = {I, I, I, I, I, I, B, B, B};
  const std::vector<Case> cases = {
      {mixed, 0, {1, 3, 4, 6, 0, 2, 5, 7}},
      {mixed, 1, {1, 0, 3, 2, 4, 5, 6, 7}},
      {mixed, 2, {1, 3, 0, 4, 6, 2, 5, 7}},
      {{B, I, B, I}, 0, {1, 3, 0, 2}},
      {six_three, 2, {0, 1, 6, 2, 3, 7, 4, 5, 8}},
      {six_three, 0, {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {{B, B, B, B}, 2, {0, 1, 2, 3}},
      {{I, I, I}, 2, {0, 1, 2}},
      {{}, 2, {}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    AdmissionQueue queue(cases[c].aging, {});
    for (Lane lane : cases[c].lanes) queue.AdmitQuery(lane);
    queue.Close();

    std::vector<std::uint32_t> got;
    AdmissionQueue::Ticket t;
    while (queue.Pop(&t)) {
      ASSERT_EQ(t.kind, AdmissionQueue::Ticket::Kind::kQuery);
      got.push_back(static_cast<std::uint32_t>(t.index));
      queue.CompleteQuery(t.lane);
    }
    EXPECT_EQ(got, cases[c].want) << "case " << c << ", aging_period=" << cases[c].aging;
  }
}

TEST(AdmissionQueueTest, PopDrainsAfterCloseAndReturnsFalse) {
  AdmissionQueue queue(0, {});
  queue.AdmitQuery(Lane::kBulk);
  queue.Close();
  AdmissionQueue::Ticket t;
  ASSERT_TRUE(queue.Pop(&t));
  queue.CompleteQuery(t.lane);
  EXPECT_FALSE(queue.Pop(&t));
  EXPECT_FALSE(queue.Pop(&t));  // idempotent once drained
}

// An update is handed out ahead of older queries (preparation starts as
// early as possible) and gates the queries admitted after it: they are not
// dequeued until PublishUpdate.
TEST(AdmissionQueueTest, UpdateGatesLaterQueriesButNotEarlierOnes) {
  AdmissionQueue queue(0, {});
  queue.AdmitQuery(Lane::kInteractive);  // index 0, epoch slot 0
  queue.AdmitUpdate();                   // index 1, ordinal 0
  queue.AdmitQuery(Lane::kInteractive);  // index 2, epoch slot 1
  queue.Close();

  AdmissionQueue::Ticket t;
  ASSERT_TRUE(queue.Pop(&t));  // the update goes first
  ASSERT_EQ(t.kind, AdmissionQueue::Ticket::Kind::kUpdate);
  EXPECT_EQ(t.index, 1u);
  EXPECT_EQ(t.update_ordinal, 0u);

  // With the update unresolved, only the pre-update query is runnable.
  ASSERT_TRUE(queue.Pop(&t));
  ASSERT_EQ(t.kind, AdmissionQueue::Ticket::Kind::kQuery);
  EXPECT_EQ(t.index, 0u);
  EXPECT_EQ(t.epoch_slot, 0u);
  queue.CompleteQuery(t.lane);

  // The post-update query is blocked until the publish; unblock it from a
  // second thread while this one waits inside Pop.
  std::thread publisher([&] { queue.PublishUpdate(); });
  ASSERT_TRUE(queue.Pop(&t));
  publisher.join();
  ASSERT_EQ(t.kind, AdmissionQueue::Ticket::Kind::kQuery);
  EXPECT_EQ(t.index, 2u);
  EXPECT_EQ(t.epoch_slot, 1u);
  queue.CompleteQuery(t.lane);
  EXPECT_FALSE(queue.Pop(&t));
}

// The bulk in-flight cap diverts dequeues to the interactive lane while
// bulk slots are occupied.
TEST(AdmissionQueueTest, BulkCapDivertsToInteractive) {
  AdmissionCaps caps;
  caps.bulk = 1;
  AdmissionQueue queue(/*aging_period=*/1, caps);
  queue.AdmitQuery(Lane::kBulk);         // 0
  queue.AdmitQuery(Lane::kBulk);         // 1
  queue.AdmitQuery(Lane::kInteractive);  // 2
  queue.Close();

  AdmissionQueue::Ticket a, b, c;
  ASSERT_TRUE(queue.Pop(&a));
  EXPECT_EQ(a.index, 2u);  // interactive first
  // Aging would now hand the slot to bulk; index 0 occupies the only slot.
  ASSERT_TRUE(queue.Pop(&b));
  EXPECT_EQ(b.index, 0u);
  EXPECT_EQ(b.lane, Lane::kBulk);
  // Bulk is at its cap: index 1 must wait for the completion of index 0
  // even though no interactive query remains.
  std::thread completer([&] { queue.CompleteQuery(Lane::kBulk); });
  ASSERT_TRUE(queue.Pop(&c));
  completer.join();
  EXPECT_EQ(c.index, 1u);
  queue.CompleteQuery(Lane::kBulk);
  queue.CompleteQuery(Lane::kInteractive);
  EXPECT_EQ(queue.max_inflight(Lane::kBulk), 1u);
}

// MPMC under contention: every ticket is delivered exactly once, caps are
// never exceeded, and epoch gating holds (a query's slot is never popped
// before its update resolves).
TEST(AdmissionQueueTest, ConcurrentProducersAndConsumersDeliverExactlyOnce) {
  AdmissionCaps caps;
  caps.bulk = 2;
  AdmissionQueue queue(3, caps);
  constexpr std::size_t kItems = 400;

  std::vector<std::atomic<int>> delivered(kItems);
  for (auto& d : delivered) d.store(0);
  std::atomic<std::size_t> bulk_inflight{0};
  std::atomic<bool> cap_violated{false};
  std::atomic<std::size_t> resolved{0};
  std::atomic<bool> gate_violated{false};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      AdmissionQueue::Ticket t;
      while (queue.Pop(&t)) {
        delivered[t.index].fetch_add(1);
        if (t.kind == AdmissionQueue::Ticket::Kind::kUpdate) {
          resolved.fetch_add(1);
          queue.PublishUpdate();
          continue;
        }
        if (t.epoch_slot > resolved.load()) gate_violated.store(true);
        if (t.lane == Lane::kBulk) {
          const std::size_t now = bulk_inflight.fetch_add(1) + 1;
          if (now > caps.bulk) cap_violated.store(true);
        }
        std::this_thread::yield();
        if (t.lane == Lane::kBulk) bulk_inflight.fetch_sub(1);
        queue.CompleteQuery(t.lane);
      }
    });
  }

  std::mt19937_64 rng(11);
  for (std::size_t i = 0; i < kItems; ++i) {
    const auto roll = rng() % 10;
    if (roll == 0) {
      queue.AdmitUpdate();
    } else {
      queue.AdmitQuery(roll % 2 == 0 ? Lane::kInteractive : Lane::kBulk);
    }
  }
  queue.Close();
  for (auto& c : consumers) c.join();

  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(delivered[i].load(), 1) << "ticket " << i;
  }
  EXPECT_FALSE(cap_violated.load());
  EXPECT_FALSE(gate_violated.load());
  EXPECT_LE(queue.max_inflight(Lane::kBulk), caps.bulk);
}

// --------------------------------------------------------------------------
// Streaming engine: bit-identical to a serialized replay.
// --------------------------------------------------------------------------

// Builds a mixed stream over the planted graph: interleaved lanes, several
// valid edge-update batches (deletions of planted edges, later re-inserts),
// and one intentionally invalid batch.
std::vector<ServeItem> MakeMixedStream(const PlantedGraph& pg,
                                       std::span<const BccQuery> queries,
                                       bool include_invalid) {
  std::vector<Edge> edges = pg.graph.AllEdges();
  std::vector<ServeItem> items;
  std::size_t edge_i = 0;
  auto push_update = [&](std::vector<EdgeUpdate> ups) {
    UpdateRequest u;
    u.updates = std::move(ups);
    items.emplace_back(std::move(u));
  };
  for (std::size_t rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req;
      req.query = queries[i];
      req.method = i % 3 == 0 ? QueryMethod::kOnlineBcc : QueryMethod::kLpBcc;
      req.lane = i % 2 == 0 ? Lane::kInteractive : Lane::kBulk;
      items.emplace_back(req);
    }
    // One deletion batch per repetition; the last repetition re-inserts
    // everything so later assertions can compare against the base graph.
    if (rep + 1 < 4) {
      const Edge e = edges[edge_i++];
      push_update({{EdgeUpdateKind::kDelete, e}});
    } else {
      std::vector<EdgeUpdate> back;
      for (std::size_t k = 0; k < edge_i; ++k) {
        back.push_back({EdgeUpdateKind::kInsert, edges[k]});
      }
      push_update(std::move(back));
    }
  }
  if (include_invalid) {
    // Self loop: rejected as a whole batch, epoch must stay unchanged.
    push_update({{EdgeUpdateKind::kInsert, {0, 0}}});
    QueryRequest tail;
    tail.query = queries[0];
    tail.lane = Lane::kInteractive;
    items.emplace_back(tail);
  }
  return items;
}

// The serialized reference: one item at a time through a single-worker
// engine — the admission order IS the execution order.
BatchResult SerializedReplay(const PlantedGraph& pg, std::span<const ServeItem> items,
                             const ServeOptions& opts) {
  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  BatchResult merged;
  for (const ServeItem& item : items) {
    BatchResult one = engine.Serve(std::span<const ServeItem>(&item, 1));
    merged.communities.push_back(std::move(one.communities[0]));
    merged.stats.push_back(one.stats[0]);
    merged.epoch_of.push_back(one.epoch_of[0]);
    for (UpdateOutcome& u : one.updates) {
      u.item_index = merged.communities.size() - 1;
      merged.updates.push_back(std::move(u));
    }
  }
  return merged;
}

void ExpectSameAnswers(const BatchResult& got, const BatchResult& want) {
  ASSERT_EQ(got.communities.size(), want.communities.size());
  for (std::size_t i = 0; i < got.communities.size(); ++i) {
    EXPECT_EQ(got.communities[i].vertices, want.communities[i].vertices) << "item " << i;
  }
  ASSERT_EQ(got.epoch_of.size(), want.epoch_of.size());
  for (std::size_t i = 0; i < got.epoch_of.size(); ++i) {
    EXPECT_EQ(got.epoch_of[i], want.epoch_of[i]) << "item " << i;
  }
  ASSERT_EQ(got.updates.size(), want.updates.size());
  for (std::size_t i = 0; i < got.updates.size(); ++i) {
    EXPECT_EQ(got.updates[i].applied, want.updates[i].applied) << "update " << i;
    EXPECT_EQ(got.updates[i].item_index, want.updates[i].item_index) << "update " << i;
    EXPECT_EQ(got.updates[i].epoch, want.updates[i].epoch) << "update " << i;
    EXPECT_EQ(got.updates[i].inserts, want.updates[i].inserts) << "update " << i;
    EXPECT_EQ(got.updates[i].deletes, want.updates[i].deletes) << "update " << i;
  }
}

// THE acceptance property: concurrent workers, off-thread update
// preparation, copy-on-write epoch publishes — and the answers (plus the
// epoch each item observed) are bit-identical to the serialized replay.
TEST(StreamServeTest, ConcurrentStreamMatchesSerializedReplay) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_GE(queries.size(), 4u);
  const std::vector<ServeItem> items = MakeMixedStream(pg, queries, /*include_invalid=*/true);

  ServeOptions opts;
  const BatchResult want = SerializedReplay(pg, items, opts);

  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    BatchRunner runner(threads);
    ServeEngine engine(runner, pg.graph, nullptr, opts);
    BatchResult got = engine.RunStream(items);
    ExpectSameAnswers(got, want);
  }
}

// Same property with per-lane caps active: scheduling changes, answers and
// epochs do not, and the caps are observed.
TEST(StreamServeTest, LaneCapsChangeSchedulingNotAnswers) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_GE(queries.size(), 4u);
  const std::vector<ServeItem> items =
      MakeMixedStream(pg, queries, /*include_invalid=*/false);

  ServeOptions plain;
  const BatchResult want = SerializedReplay(pg, items, plain);

  ServeOptions capped = plain;
  capped.caps.bulk = 1;
  BatchRunner runner(4);
  ServeEngine engine(runner, pg.graph, nullptr, capped);
  BatchResult got = engine.RunStream(items);
  ExpectSameAnswers(got, want);
  for (const LaneSummary& lane : got.lanes) {
    if (lane.lane == Lane::kBulk) {
      EXPECT_LE(lane.max_inflight, 1u);
    }
  }
}

// Submit-while-draining: the session API admits items while workers are
// already executing earlier ones; results arrive in admission order and
// match the replay.
TEST(StreamServeTest, SessionSubmitWhileDrainingMatchesReplay) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_GE(queries.size(), 4u);
  const std::vector<ServeItem> items = MakeMixedStream(pg, queries, /*include_invalid=*/true);

  ServeOptions opts;
  const BatchResult want = SerializedReplay(pg, items, opts);

  BatchRunner runner(4);
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  ServeEngine::Stream stream = engine.OpenStream();
  for (const ServeItem& item : items) {
    stream.Submit(item);
    std::this_thread::yield();  // let workers interleave with admission
  }
  EXPECT_EQ(stream.Submitted(), items.size());
  BatchResult got = stream.Finish();
  ExpectSameAnswers(got, want);
}

// Epoch pinning under the indexed (L2P) path: the repaired index published
// by a streamed update answers exactly like a fresh engine on the final
// graph, and pre-update queries saw the pre-update epoch.
TEST(StreamServeTest, IndexedStreamRepairsAndPinsEpochs) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 6);
  ASSERT_GE(queries.size(), 2u);
  BcIndex index(pg.graph);

  std::vector<Edge> edges = pg.graph.AllEdges();
  std::vector<ServeItem> items;
  for (const BccQuery& q : queries) {
    QueryRequest req;
    req.query = q;
    req.method = QueryMethod::kL2pBcc;
    req.lane = Lane::kInteractive;
    items.emplace_back(req);
  }
  UpdateRequest del;
  del.updates.push_back({EdgeUpdateKind::kDelete, edges[0]});
  items.emplace_back(del);
  for (const BccQuery& q : queries) {
    QueryRequest req;
    req.query = q;
    req.method = QueryMethod::kL2pBcc;
    req.lane = Lane::kBulk;
    items.emplace_back(req);
  }

  BatchRunner runner(4);
  ServeEngine engine(runner, pg.graph, &index, {});
  BatchResult got = engine.RunStream(items);
  ASSERT_EQ(got.updates.size(), 1u);
  ASSERT_TRUE(got.updates[0].applied);
  EXPECT_EQ(engine.epoch(), 2u);

  // Pre-update queries ran in epoch 1, post-update ones in epoch 2.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got.epoch_of[i], 1u) << i;
    EXPECT_EQ(got.epoch_of[queries.size() + 1 + i], 2u) << i;
  }

  // Reference answers: fresh engines over the base and the updated graph.
  BatchRunner seq(1);
  {
    ServeEngine base_engine(seq, pg.graph, &index, {});
    std::vector<ServeItem> head(items.begin(),
                                items.begin() + static_cast<std::ptrdiff_t>(queries.size()));
    BatchResult base = base_engine.Serve(head);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got.communities[i].vertices, base.communities[i].vertices) << i;
    }
  }
  {
    const auto delta = BuildGraphDelta(pg.graph, del.updates);
    ASSERT_TRUE(delta.has_value());
    const LabeledGraph updated = ApplyGraphDelta(pg.graph, *delta);
    BcIndex fresh(updated);
    ServeEngine updated_engine(seq, updated, &fresh, {});
    std::vector<ServeItem> tail(items.end() - static_cast<std::ptrdiff_t>(queries.size()),
                                items.end());
    BatchResult fresh_result = updated_engine.Serve(tail);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got.communities[queries.size() + 1 + i].vertices,
                fresh_result.communities[i].vertices)
          << i;
    }
  }
}

// A rejected batch publishes the unchanged epoch; the stream keeps serving.
TEST(StreamServeTest, RejectedUpdatePublishesUnchangedEpoch) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 2);
  ASSERT_FALSE(queries.empty());

  std::vector<ServeItem> items;
  QueryRequest q;
  q.query = queries[0];
  q.lane = Lane::kInteractive;
  items.emplace_back(q);
  UpdateRequest bad;
  bad.updates.push_back({EdgeUpdateKind::kInsert, {3, 3}});  // self loop
  items.emplace_back(bad);
  items.emplace_back(q);

  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph, nullptr, {});
  BatchResult got = engine.RunStream(items);
  ASSERT_EQ(got.updates.size(), 1u);
  EXPECT_FALSE(got.updates[0].applied);
  EXPECT_FALSE(got.updates[0].error.empty());
  EXPECT_EQ(got.epoch_of[0], 1u);
  EXPECT_EQ(got.epoch_of[2], 1u);  // unchanged for the post-reject query
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(got.communities[0].vertices, got.communities[2].vertices);
}

// Approx sampling through the stream: explicit request ids make the sampled
// schedule a pure function of the admission order, so a 1-worker and a
// 4-worker stream agree bit for bit — the per-round sample count depends
// only on the (deterministic) candidate size.
TEST(StreamServeTest, ApproxStreamsAreBitIdenticalAcrossThreadCounts) {
  PlantedGraph pg = MakeGraph(8, 21);
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_GE(queries.size(), 4u);

  ApproxOptions approx;
  approx.enabled = true;
  approx.samples = 128;
  approx.threshold = 1;  // force the sampled path on every round
  approx.seed = 9;
  ServeOptions opts;
  opts.online.approx = approx;

  std::vector<ServeItem> items;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    QueryRequest req;
    req.query = queries[i];
    req.method = QueryMethod::kOnlineBcc;
    req.request_id = i + 1;
    req.lane = i % 2 == 0 ? Lane::kInteractive : Lane::kBulk;
    items.emplace_back(req);
  }

  BatchRunner seq(1);
  ServeEngine seq_engine(seq, pg.graph, nullptr, opts);
  BatchResult a = seq_engine.RunStream(items);

  BatchRunner par(4);
  ServeEngine par_engine(par, pg.graph, nullptr, opts);
  BatchResult b = par_engine.RunStream(items);

  std::size_t checks = 0;
  for (const SearchStats& s : a.stats) checks += s.approx_checks;
  EXPECT_GT(checks, 0u);
  ASSERT_EQ(a.communities.size(), b.communities.size());
  for (std::size_t i = 0; i < a.communities.size(); ++i) {
    EXPECT_EQ(a.communities[i].vertices, b.communities[i].vertices) << "item " << i;
  }
}

// EffectiveSampleCount scales with the candidate size inside
// [kApproxSampleFloor, samples]; a ceiling below the floor wins.
TEST(StreamServeTest, EffectiveSampleCountContract) {
  ApproxOptions o;
  o.samples = 1000;
  EXPECT_EQ(EffectiveSampleCount(o, 10), kApproxSampleFloor);  // floor
  EXPECT_EQ(EffectiveSampleCount(o, 400), 100u);                // alive / 4
  EXPECT_EQ(EffectiveSampleCount(o, 1u << 20), 1000u);          // ceiling
  o.samples = 32;  // ceiling below the floor: ceiling wins
  EXPECT_EQ(EffectiveSampleCount(o, 10), 32u);
  EXPECT_EQ(EffectiveSampleCount(o, 1u << 20), 32u);
}

// Move-assignment over an unfinished stream must finish it (join the pump,
// release the engine) rather than destroying a joinable thread — and the
// overwritten engine must accept a new stream afterwards.
TEST(StreamServeTest, MoveAssignFinishesTheTargetStream) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 2);
  ASSERT_FALSE(queries.empty());
  QueryRequest q;
  q.query = queries[0];

  BatchRunner r1(1), r2(1);
  ServeEngine e1(r1, pg.graph), e2(r2, pg.graph);
  ServeEngine::Stream stream = e1.OpenStream();
  stream.Submit(q);
  stream = e2.OpenStream();  // finishes (and discards) e1's stream
  stream.Submit(q);
  BatchResult res = stream.Finish();
  EXPECT_EQ(res.communities.size(), 1u);
  EXPECT_FALSE(res.communities[0].Empty());

  // e1 released its stream slot: it can open (and run) another one.
  BatchResult again = e1.RunStream({});
  EXPECT_TRUE(again.communities.empty());
}

// Back-to-back streams on one engine: state carries over (epochs advance
// monotonically) and the second stream starts from the first's result.
TEST(StreamServeTest, SequentialStreamsShareEpochState) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 2);
  ASSERT_FALSE(queries.empty());
  std::vector<Edge> edges = pg.graph.AllEdges();

  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph, nullptr, {});

  std::vector<ServeItem> first;
  UpdateRequest del;
  del.updates.push_back({EdgeUpdateKind::kDelete, edges[0]});
  first.emplace_back(del);
  BatchResult r1 = engine.RunStream(first);
  ASSERT_TRUE(r1.updates[0].applied);
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_FALSE(engine.graph().HasEdge(edges[0].u, edges[0].v));

  std::vector<ServeItem> second;
  QueryRequest q;
  q.query = queries[0];
  second.emplace_back(q);
  BatchResult r2 = engine.RunStream(second);
  EXPECT_EQ(r2.epoch_of[0], 2u);
}

// A query answered through a completion callback is not kept until Finish
// (a long-lived socket stream would otherwise grow with every request):
// the callback sees the full answer, Finish an empty slot. A query submitted
// without a callback keeps its answer.
TEST(StreamServeTest, CallbackAnswersAreNotKeptUntilFinish) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 6);
  ASSERT_GE(queries.size(), 2u);

  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph);
  // One slot per item; each callback writes only its own slot.
  std::vector<std::vector<VertexId>> seen(queries.size());
  ServeEngine::Stream stream = engine.OpenStream();
  for (const BccQuery& bq : queries) {
    QueryRequest q;
    q.query = bq;
    stream.Submit(q, [&seen](const ItemCompletion& c) { seen[c.index] = c.community->vertices; });
  }
  QueryRequest kept;
  kept.query = queries[0];
  stream.Submit(kept);
  BatchResult res = stream.Finish();

  ASSERT_EQ(res.communities.size(), queries.size() + 1);
  std::size_t non_empty = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(seen[i], LpBcc(pg.graph, queries[i], {}).vertices) << i;
    EXPECT_TRUE(res.communities[i].Empty()) << i;
    non_empty += seen[i].empty() ? 0 : 1;
  }
  EXPECT_GT(non_empty, 0u);
  EXPECT_EQ(res.communities.back().vertices, seen[0]);
  EXPECT_FALSE(res.communities.back().Empty());
}

}  // namespace
}  // namespace bccs
