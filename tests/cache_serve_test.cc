// Caching layer: the butterfly block cache (byte-budget LRU behind
// BcIndex), the epoch-keyed result cache, and their serving-engine wiring.
// The load-bearing property is DESIGN.md serving contract 6: a cache hit is
// indistinguishable from re-executing the query at its pinned epoch —
// mixed query/update streams must answer bit-identically with the cache on
// and off, including epoch_of. The concurrency stress tests are
// mutex-based throughout and run under the `sanitize` ctest label
// (ASan+UBSan and TSan presets).

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "butterfly/block_cache.h"
#include "common/validate.h"
#include "eval/query_gen.h"
#include "eval/result_cache.h"
#include "eval/serve_engine.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"

namespace bccs {
namespace {

PlantedGraph MakeGraph(std::size_t communities = 5, std::uint64_t seed = 77,
                       std::size_t num_labels = 3) {
  PlantedConfig cfg;
  cfg.num_communities = communities;
  cfg.groups_per_community = 3;  // enough groups for 3-vertex mBCC queries
  cfg.num_labels = num_labels;
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

ButterflyCounts MakeCounts(std::size_t chi_size, std::uint64_t total) {
  ButterflyCounts c;
  c.chi.assign(chi_size, total);
  c.total = total;
  return c;
}

// --------------------------------------------------------------------------
// ButterflyBlockCache: LRU eviction under a byte budget, pinning.
// --------------------------------------------------------------------------

// With a budget of ~2 blocks, every insert beyond the budget evicts a
// shard-LRU victim; the byte accounting never exceeds the budget and
// evicted blocks fault back in with correct contents.
TEST(ButterflyBlockCacheTest, EvictsUnderByteBudget) {
  ButterflyBlockCache cache;
  cache.Insert(0, 1, MakeCounts(16, 1), /*pin=*/false);
  const std::size_t one = cache.Stats().bytes;
  ASSERT_GT(one, 0u);
  cache.SetBudget(2 * one + one / 2);

  cache.Insert(0, 2, MakeCounts(16, 2), /*pin=*/false);
  EXPECT_EQ(cache.Stats().evictions, 0u);

  for (Label b = 3; b < 10; ++b) {
    cache.Insert(0, b, MakeCounts(16, b), /*pin=*/false);
    EXPECT_LE(cache.Stats().bytes, cache.budget());
  }
  const BlockCacheStats s = cache.Stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(cache.EntryCount(), 2u);  // budget holds exactly two blocks
  EXPECT_EQ(s.entries, 9u - s.evictions);

  // A victim re-inserts cleanly (the fault-in path after eviction).
  bool refilled = false;
  for (Label b = 1; b < 10; ++b) {
    if (cache.Peek(0, b) != nullptr) continue;
    const auto back = cache.Insert(0, b, MakeCounts(16, b), /*pin=*/false);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->total, b);
    refilled = true;
    break;
  }
  EXPECT_TRUE(refilled);
  EXPECT_LE(cache.Stats().bytes, cache.budget());
}

// Pinned blocks never count against the budget and are never evicted, even
// when the budget cannot hold the unpinned tail.
TEST(ButterflyBlockCacheTest, PinnedBlocksExemptFromBudget) {
  ButterflyBlockCache cache;
  cache.Insert(0, 1, MakeCounts(64, 1), /*pin=*/true);
  cache.Insert(0, 2, MakeCounts(64, 2), /*pin=*/true);
  cache.SetBudget(1);  // smaller than any single block
  EXPECT_EQ(cache.Stats().evictions, 0u);
  EXPECT_EQ(cache.EntryCount(), 2u);

  cache.Insert(1, 2, MakeCounts(64, 3), /*pin=*/false);
  const BlockCacheStats s = cache.Stats();
  EXPECT_EQ(s.pinned_entries, 2u);
  EXPECT_EQ(s.bytes, 0u);  // the unpinned block could not be retained
  EXPECT_NE(cache.Peek(0, 1), nullptr);
  EXPECT_NE(cache.Peek(0, 2), nullptr);
}

// First insert wins; a re-insert may only promote an existing block to
// pinned (snapshot materialization over a lazily faulted block).
TEST(ButterflyBlockCacheTest, FirstInsertWinsAndPinPromotes) {
  ButterflyBlockCache cache;
  const auto first = cache.Insert(0, 1, MakeCounts(8, 1), /*pin=*/false);
  const auto second = cache.Insert(0, 1, MakeCounts(8, 99), /*pin=*/true);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(second->total, 1u);
  EXPECT_EQ(cache.Stats().pinned_entries, 1u);
}

// Lazy fault-ins through BcIndex under a budget keep the byte/entry
// accounting exact (the ValidatePairCacheAccounting contract) and the
// served counts identical to an unbounded index.
TEST(ButterflyBlockCacheTest, BcIndexAccountingValidatesUnderEviction) {
  PlantedGraph pg = MakeGraph(6, 21, /*num_labels=*/6);
  BcIndex ref(pg.graph);
  BcIndex capped(pg.graph);

  capped.PairButterflies(0, 1);
  const std::size_t one = capped.PairCacheStats().bytes;
  capped.SetPairCacheBudget(2 * one + one / 2);

  const auto num_labels = static_cast<Label>(pg.graph.NumLabels());
  for (int round = 0; round < 3; ++round) {
    for (Label a = 0; a + 1 < num_labels; ++a) {
      for (Label b = a + 1; b < num_labels; ++b) {
        const auto got = capped.PairButterflies(a, b);
        const auto want = ref.PairButterflies(a, b);
        ASSERT_EQ(got->total, want->total);
        ASSERT_EQ(got->chi, want->chi);
        const ValidationResult acc = ValidatePairCacheAccounting(capped);
        ASSERT_TRUE(acc.ok) << acc.reason;
      }
    }
  }
  const BlockCacheStats s = capped.PairCacheStats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, s.budget_bytes);
}

// --------------------------------------------------------------------------
// ResultCache: the epoch-window validity rule.
// --------------------------------------------------------------------------

ResultCacheKey MakeKey(VertexId ql, VertexId qr) {
  ResultCacheKey key;
  key.method = 1;
  key.vertices = {ql, qr};
  key.ks = {0, 0};
  key.b = 1;
  return key;
}

TEST(ResultCacheTest, EpochWindowRule) {
  ResultCache cache(64);
  const ResultCacheKey key = MakeKey(3, 9);
  const std::vector<Label> labels = {0, 1};
  Community community;
  community.vertices = {3, 5, 9};
  SearchStats stats;

  Community got;
  SearchStats got_stats;
  // Cold miss, then insert at epoch 1.
  EXPECT_FALSE(cache.Lookup(key, 1, 0, &got, &got_stats));
  cache.Insert(key, labels, 1, community, stats);

  // Valid at its own epoch and any later epoch while untouched.
  EXPECT_TRUE(cache.Lookup(key, 1, 0, &got, &got_stats));
  EXPECT_EQ(got, community);
  EXPECT_TRUE(cache.Lookup(key, 5, 1, &got, &got_stats));

  // A cross repair of an unrelated pair does not invalidate it...
  const std::vector<std::pair<Label, Label>> other_pair = {{2, 3}};
  cache.NoteRepairs({}, other_pair, 6);
  EXPECT_TRUE(cache.Lookup(key, 6, 0, &got, &got_stats));

  // ...but a repair of the entry's own pair after its compute epoch does.
  const std::vector<std::pair<Label, Label>> own_pair = {{0, 1}};
  cache.NoteRepairs({}, own_pair, 7);
  EXPECT_FALSE(cache.Lookup(key, 7, 0, &got, &got_stats));
  EXPECT_EQ(cache.Stats().stale_drops, 1u);

  // An insert that lost the race with that repair is rejected.
  cache.Insert(key, labels, 6, community, stats);
  EXPECT_EQ(cache.Stats().rejected_inserts, 1u);
  EXPECT_FALSE(cache.Lookup(key, 7, 0, &got, &got_stats));

  // Recomputed at epoch 8 it is valid again — but never for a query still
  // pinned before its compute epoch.
  cache.Insert(key, labels, 8, community, stats);
  EXPECT_FALSE(cache.Lookup(key, 7, 0, &got, &got_stats));
  EXPECT_TRUE(cache.Lookup(key, 8, 0, &got, &got_stats));

  // An intra-label repair of one of the entry's labels invalidates too.
  const std::vector<Label> intra = {1};
  cache.NoteRepairs(intra, {}, 9);
  EXPECT_FALSE(cache.Lookup(key, 9, 0, &got, &got_stats));

  const ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.stale_drops, 2u);
  EXPECT_EQ(s.lane_hits[0] + s.lane_hits[1], s.hits);
}

// Capacity is enforced per shard with LRU eviction.
TEST(ResultCacheTest, EvictsAtCapacity) {
  ResultCache cache(8);  // one entry per shard
  Community community;
  community.vertices = {1};
  SearchStats stats;
  const std::vector<Label> labels = {0};
  for (VertexId v = 0; v < 64; ++v) {
    cache.Insert(MakeKey(v, v + 1), labels, 1, community, stats);
  }
  const ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.insertions, 64u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, s.capacity);
}

// Concurrent lookups, inserts, and invalidations: exercised for the
// sanitizer presets (TSan race-freedom, ASan/UBSan memory safety). The
// only assertion is that every observed hit carries a community consistent
// with what some insert stored for that key.
TEST(ResultCacheTest, ConcurrentHitMissInvalidate) {
  ResultCache cache(128);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> bad{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &bad, t] {
      SearchStats stats;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto v = static_cast<VertexId>((t * 7 + i) % 32);
        const ResultCacheKey key = MakeKey(v, v + 1);
        const std::vector<Label> labels = {static_cast<Label>(v % 4)};
        Community community;
        community.vertices = {v};
        Community got;
        SearchStats got_stats;
        if (cache.Lookup(key, /*query_epoch=*/1000, static_cast<std::size_t>(t % 2), &got,
                         &got_stats)) {
          if (got.vertices != community.vertices) bad.store(true);
        } else {
          cache.Insert(key, labels, /*compute_epoch=*/1, community, stats);
        }
      }
    });
  }
  workers.emplace_back([&cache] {
    for (std::uint64_t epoch = 2; epoch < 100; ++epoch) {
      const std::vector<Label> intra = {static_cast<Label>(epoch % 4)};
      cache.NoteRepairs(intra, {}, epoch);
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_FALSE(bad.load());
  const ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * static_cast<std::uint64_t>(kOpsPerThread));
}

// --------------------------------------------------------------------------
// ServeEngine wiring: contract 6 end to end.
// --------------------------------------------------------------------------

std::vector<ServeItem> MixedStream(const PlantedGraph& pg,
                                   std::span<const BccQuery> queries) {
  std::vector<Edge> edges = pg.graph.AllEdges();
  std::vector<ServeItem> items;
  // Three passes over the query pool with an update between passes: pass 2
  // re-asks pass 1's queries (hits or stale recomputes), and the deleted
  // edge comes back before pass 3 (answers really change in between).
  for (std::size_t pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req;
      req.query = queries[i];
      req.method = QueryMethod::kLpBcc;
      req.lane = i % 3 == 0 ? Lane::kInteractive : Lane::kBulk;
      items.emplace_back(req);
    }
    if (pass + 1 < 3) {
      UpdateRequest update;
      if (pass == 0) {
        update.updates.push_back({EdgeUpdateKind::kDelete, edges[0]});
      } else {
        update.updates.push_back({EdgeUpdateKind::kInsert, edges[0]});
      }
      items.emplace_back(update);
    }
  }
  return items;
}

// The acceptance criterion of the PR: a mixed query/update stream answers
// bit-identically (communities AND epoch_of) with the result cache on and
// off, while the cached run actually serves hits and drops stale entries.
TEST(CacheServeTest, MixedStreamBitIdenticalToUncached) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_FALSE(queries.empty());
  std::vector<ServeItem> items = MixedStream(pg, queries);

  BatchRunner runner(4);
  ServeEngine uncached(runner, pg.graph);
  BatchResult off = uncached.RunStream(items);

  ServeOptions opts;
  opts.result_cache_entries = 64;
  ServeEngine cached(runner, pg.graph, nullptr, opts);
  BatchResult on = cached.RunStream(items);

  ASSERT_EQ(off.communities.size(), on.communities.size());
  for (std::size_t i = 0; i < off.communities.size(); ++i) {
    EXPECT_EQ(off.communities[i].vertices, on.communities[i].vertices) << "item " << i;
  }
  EXPECT_EQ(off.epoch_of, on.epoch_of);
  EXPECT_FALSE(off.result_cache_enabled);
  EXPECT_TRUE(on.result_cache_enabled);

  const ResultCacheStats s = on.result_cache;
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  // The deleted edge's label pair invalidated at least one stored answer.
  EXPECT_GT(s.stale_drops + s.rejected_inserts, 0u);
}

// The hit path is really taken: one query asked N times on an unchanged
// epoch by one worker is executed once and served from the cache N-1 times,
// whatever its lane and request id (neither is part of the key).
TEST(CacheServeTest, RepeatedQueryOnOneEpochMissesOnce) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 1);
  ASSERT_FALSE(queries.empty());

  constexpr std::size_t kRepeats = 16;
  std::vector<QueryRequest> requests(kRepeats);
  for (std::size_t i = 0; i < kRepeats; ++i) {
    requests[i].query = queries[0];
    requests[i].method = QueryMethod::kLpBcc;
    requests[i].lane = i % 2 == 0 ? Lane::kInteractive : Lane::kBulk;
    requests[i].request_id = i + 1;
  }
  BatchRunner runner(1);
  ServeOptions opts;
  opts.result_cache_entries = 16;
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  BatchResult result = engine.Serve(requests);

  const ResultCacheStats s = result.result_cache;
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, kRepeats - 1);
  for (const Community& c : result.communities) {
    EXPECT_EQ(c.vertices, result.communities[0].vertices);
  }
}

// An update whose labels are disjoint from a cached entry's labels must NOT
// invalidate it: the re-asked query is a hit, served at the new epoch, with
// the pre-update (== post-update, for this query) answer.
TEST(CacheServeTest, HitsCarryForwardAcrossUnrelatedUpdates) {
  PlantedGraph pg = MakeGraph(6, 31, /*num_labels=*/6);
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_FALSE(queries.empty());
  const BccQuery q = queries.front();
  const Label la = pg.graph.LabelOf(q.ql);
  const Label lb = pg.graph.LabelOf(q.qr);

  // An existing edge with both endpoint labels outside the query's labels.
  Edge unrelated{kInvalidVertex, kInvalidVertex};
  for (const Edge& e : pg.graph.AllEdges()) {
    const Label eu = pg.graph.LabelOf(e.u);
    const Label ev = pg.graph.LabelOf(e.v);
    if (eu != la && eu != lb && ev != la && ev != lb) {
      unrelated = e;
      break;
    }
  }
  ASSERT_NE(unrelated.u, kInvalidVertex) << "planted graph has no label-disjoint edge";

  QueryRequest req;
  req.query = q;
  req.method = QueryMethod::kLpBcc;
  UpdateRequest update;
  update.updates.push_back({EdgeUpdateKind::kDelete, unrelated});

  std::vector<ServeItem> items;
  items.emplace_back(req);     // epoch 1: miss + insert
  items.emplace_back(update);  // publishes epoch 2
  items.emplace_back(req);     // epoch 2: must be a carried-forward hit

  BatchRunner runner(1);
  ServeOptions opts;
  opts.result_cache_entries = 16;
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  BatchResult result = engine.RunStream(items);

  EXPECT_EQ(result.epoch_of[2], 2u);
  EXPECT_EQ(result.communities[0].vertices, result.communities[2].vertices);
  const ResultCacheStats s = result.result_cache;
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.stale_drops, 0u);
}

// Approx-enabled and deadline-bearing requests bypass the cache entirely
// (per-query seeds and timing-dependent partial answers are not reusable).
TEST(CacheServeTest, ApproxAndDeadlineRequestsNotCached) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 4);
  ASSERT_FALSE(queries.empty());

  BatchRunner runner(1);
  ServeOptions opts;
  opts.result_cache_entries = 16;
  ApproxOptions approx;
  approx.enabled = true;
  approx.samples = 64;
  approx.threshold = 1;  // force the sampled path
  opts.online.approx = approx;
  ServeEngine engine(runner, pg.graph, nullptr, opts);

  std::vector<ServeItem> items;
  for (int rep = 0; rep < 2; ++rep) {
    QueryRequest sampled;
    sampled.query = queries[0];
    sampled.method = QueryMethod::kOnlineBcc;  // approx-enabled → uncacheable
    items.emplace_back(sampled);
    QueryRequest deadline;
    deadline.query = queries[0];
    deadline.method = QueryMethod::kLpBcc;
    deadline.deadline_seconds = 30.0;  // deadline-bearing → uncacheable
    items.emplace_back(deadline);
  }
  BatchResult result = engine.RunStream(items);
  const ResultCacheStats s = result.result_cache;
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.insertions, 0u);
}

// --------------------------------------------------------------------------
// Approx sampling: determinism across thread counts.
// --------------------------------------------------------------------------

// The size-scaled sample count is a pure function of the query's own
// candidate sizes: answers stay bit-identical between 1 worker and many, for
// the two-label search and for mBCC's per-pair estimates.
TEST(ApproxSamplingTest, DeterministicAcrossThreadCounts) {
  PlantedGraph pg = MakeGraph(6, 91);
  std::vector<BccQuery> queries = SampleQueries(pg, 12);
  ASSERT_FALSE(queries.empty());

  ApproxOptions approx;
  approx.enabled = true;
  approx.samples = 128;
  approx.threshold = 32;
  approx.seed = 13;
  SearchOptions opts = OnlineBccOptions();
  opts.approx = approx;

  BccParams params;
  BatchRunner seq(1);
  BatchRunner par(4);
  BatchResult s = seq.RunBccBatch(pg.graph, queries, params, opts);
  BatchResult p = par.RunBccBatch(pg.graph, queries, params, opts);
  ASSERT_EQ(s.communities.size(), p.communities.size());
  for (std::size_t i = 0; i < s.communities.size(); ++i) {
    EXPECT_EQ(s.communities[i].vertices, p.communities[i].vertices) << "query " << i;
  }

  std::vector<MbccGroundTruthQuery> mgt = SampleMbccGroundTruthQueries(pg, 3, 6, 17);
  std::vector<MbccQuery> mqueries;
  for (const auto& g : mgt) mqueries.push_back(g.query);
  ASSERT_FALSE(mqueries.empty());
  MbccParams mparams;
  SearchOptions mopts = LpBccOptions();
  mopts.approx = approx;
  BatchResult ms = seq.RunMbccBatch(pg.graph, mqueries, mparams, mopts);
  BatchResult mp = par.RunMbccBatch(pg.graph, mqueries, mparams, mopts);
  ASSERT_EQ(ms.communities.size(), mp.communities.size());
  for (std::size_t i = 0; i < ms.communities.size(); ++i) {
    EXPECT_EQ(ms.communities[i].vertices, mp.communities[i].vertices) << "query " << i;
  }
}

}  // namespace
}  // namespace bccs
