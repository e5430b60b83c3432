#include "bcc/workspace.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "bcc/query_distance.h"
#include "butterfly/butterfly_counting.h"
#include "graph/generators.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MakePath;
using testing::MakeRandomGraph;

std::vector<std::uint32_t> Materialize(const DistanceMap& dm, std::size_t n) {
  std::vector<std::uint32_t> out(n);
  for (VertexId v = 0; v < n; ++v) out[v] = dm.Get(v);
  return out;
}

TEST(ScratchPoolTest, ReusesBuffersWithoutBulkInits) {
  ScratchPool<char> pool(0);
  auto a = pool.Acquire(100);
  EXPECT_EQ(pool.bulk_inits(), 1u);
  a[7] = 1;
  std::vector<VertexId> touched = {7};
  pool.Release(std::move(a), touched);
  auto b = pool.Acquire(100);
  EXPECT_EQ(pool.bulk_inits(), 1u);  // warm reuse: no refill
  EXPECT_EQ(b[7], 0);                // restored to the default
  pool.ReleaseClean(std::move(b));
  // Growth forces one refill.
  auto c = pool.Acquire(200);
  EXPECT_EQ(pool.bulk_inits(), 2u);
  pool.ReleaseClean(std::move(c));
}

TEST(DistanceMapTest, MatchesLegacyBfs) {
  LabeledGraph g = MakePath(6);
  std::vector<char> alive(6, 1);
  alive[4] = 0;
  std::vector<std::uint32_t> legacy;
  BfsDistances(g, alive, 1, &legacy);
  DistanceMap dm;
  BfsDistances(g, alive, 1, &dm);
  EXPECT_EQ(Materialize(dm, 6), legacy);
}

TEST(DistanceMapTest, RandomizedIncrementalEqualsFreshBfs) {
  // After every deletion batch the repaired map must equal a fresh BFS over
  // the surviving subgraph, and `changed` must be exactly the alive vertices
  // whose distance moved (the engine requeues only those).
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    LabeledGraph g = MakeRandomGraph(60, 0.08, 2, seed);
    const std::size_t n = g.NumVertices();
    std::mt19937_64 rng(seed * 97 + 13);
    std::vector<char> alive(n, 1);
    VertexId source = static_cast<VertexId>(rng() % n);

    std::vector<std::uint32_t> legacy;
    BfsDistances(g, alive, source, &legacy);
    DistanceMap dm;
    BfsDistances(g, alive, source, &dm);
    ASSERT_EQ(Materialize(dm, n), legacy);

    for (int round = 0; round < 12; ++round) {
      // Random non-source deletion batch of 1-4 alive vertices.
      std::vector<VertexId> batch;
      for (int t = 0; t < 8 && batch.size() < 4; ++t) {
        VertexId v = static_cast<VertexId>(rng() % n);
        if (v == source || !alive[v]) continue;
        if (std::find(batch.begin(), batch.end(), v) == batch.end()) batch.push_back(v);
      }
      if (batch.empty()) break;
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " round " << round);
      ASSERT_NO_FATAL_FAILURE(testing::DeleteAndCheckRepair(g, source, batch, &alive, &dm));
    }
  }
}

TEST(PeelQueueTest, PopsFarthestAndKeepsQueries) {
  PeelQueue q;
  q.Reset(10);
  std::vector<char> alive(10, 1);
  q.Update(0, 1);  // the "query"
  q.Update(1, 3);
  q.Update(2, 3);
  q.Update(3, 2);
  q.Update(4, kInfDistance);

  auto is_query = [](VertexId v) { return v == 0; };
  std::vector<VertexId> batch;
  std::uint32_t level = 0;

  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, kInfDistance);
  EXPECT_EQ(batch, (std::vector<VertexId>{4}));
  alive[4] = 0;

  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, 3u);
  std::sort(batch.begin(), batch.end());
  EXPECT_EQ(batch, (std::vector<VertexId>{1, 2}));
  alive[1] = alive[2] = 0;

  // Distance growth: vertex 3 moves from 2 to 5 and must pop at 5.
  q.Update(3, 5);
  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, 5u);
  EXPECT_EQ(batch, (std::vector<VertexId>{3}));
  alive[3] = 0;

  // Only the query remains: level reported, batch empty, still queued.
  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, 1u);
  EXPECT_TRUE(batch.empty());
  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, 1u);

  alive[0] = 0;
  EXPECT_FALSE(q.PopFarthest(alive, is_query, &batch, &level));
}

TEST(DistanceMapTest, EpochWrapDoesNotResurrectStaleEntries) {
  DistanceMap dm;
  dm.Reset(8);  // epoch 1
  dm.Set(5, 3);
  dm.SetUnreachable(6);
  ASSERT_EQ(dm.Get(5), 3u);

  // Drive the uint32 epoch counter to its maximum and wrap it. Without the
  // wrap re-init, vertex 5's stamp (from the early epoch 1) would collide
  // with the post-wrap epoch and its stale distance would read as fresh.
  dm.ForceEpochWrapForTest();
  dm.Set(2, 7);  // stamped at the maximum epoch value
  const std::uint64_t inits_before = dm.bulk_inits();
  dm.Reset(8);  // wraps: must bulk re-init the stamps
  EXPECT_EQ(dm.bulk_inits(), inits_before + 1);
  EXPECT_EQ(dm.Get(2), kInfDistance);
  EXPECT_EQ(dm.Get(5), kInfDistance);
  EXPECT_EQ(dm.Get(6), kInfDistance);

  // The wrapped epoch works like any other.
  dm.Set(5, 1);
  EXPECT_EQ(dm.Get(5), 1u);
  EXPECT_EQ(dm.Get(2), kInfDistance);
  dm.Reset(8);
  EXPECT_EQ(dm.Get(5), kInfDistance);
}

TEST(PeelQueueTest, EpochWrapDoesNotResurrectStaleEntries) {
  PeelQueue q;
  std::vector<char> alive(6, 1);
  auto no_query = [](VertexId) { return false; };
  std::vector<VertexId> batch;
  std::uint32_t level = 0;

  q.Reset(6);
  q.Update(3, 4);
  q.Update(1, kInfDistance);

  q.ForceEpochWrapForTest();
  q.Update(2, 9);
  const std::uint64_t inits_before = q.bulk_inits();
  q.Reset(6);  // wraps
  EXPECT_EQ(q.bulk_inits(), inits_before + 1);
  // Nothing queued this epoch: stale pre-wrap entries must not pop.
  EXPECT_FALSE(q.PopFarthest(alive, no_query, &batch, &level));

  // Fresh updates after the wrap behave normally.
  q.Update(4, 2);
  q.Update(5, 7);
  ASSERT_TRUE(q.PopFarthest(alive, no_query, &batch, &level));
  EXPECT_EQ(level, 7u);
  EXPECT_EQ(batch, (std::vector<VertexId>{5}));
}

TEST(PeelQueueTest, RequeueAfterPartialDeletion) {
  PeelQueue q;
  q.Reset(4);
  std::vector<char> alive(4, 1);
  for (VertexId v = 0; v < 4; ++v) q.Update(v, 2);
  auto no_query = [](VertexId) { return false; };
  std::vector<VertexId> batch;
  std::uint32_t level = 0;
  ASSERT_TRUE(q.PopFarthest(alive, no_query, &batch, &level));
  ASSERT_EQ(batch.size(), 4u);
  // Single-delete style: keep batch[0], requeue the rest.
  for (std::size_t i = 1; i < batch.size(); ++i) q.Requeue(batch[i]);
  alive[batch[0]] = 0;
  ASSERT_TRUE(q.PopFarthest(alive, no_query, &batch, &level));
  EXPECT_EQ(level, 2u);
  EXPECT_EQ(batch.size(), 3u);
}

TEST(ButterflyWorkspaceTest, MatchesBruteForceRandomized) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    LabeledGraph g = MakeRandomGraph(40, 0.15, 2, seed + 100);
    const std::size_t n = g.NumVertices();
    std::mt19937_64 rng(seed);
    std::vector<VertexId> left, right;
    std::vector<char> in_left(n, 0), in_right(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      if (g.LabelOf(v) == 0) {
        left.push_back(v);
        in_left[v] = rng() % 4 != 0;  // some dead members
      } else {
        right.push_back(v);
        in_right[v] = rng() % 4 != 0;
      }
    }

    ButterflyCounts brute = CountButterfliesBruteForce(g, left, right, in_left, in_right);

    QueryWorkspace ws;
    ButterflyCounts fast;
    fast.chi = ws.U64ZeroPool().Acquire(n);
    CountButterfliesInto(g, left, right, in_left, in_right, &ws, &fast);
    // Recount over the same buffer (the steady-state path) must stay exact.
    CountButterfliesInto(g, left, right, in_left, in_right, &ws, &fast);

    EXPECT_EQ(fast.total, brute.total) << "seed " << seed;
    EXPECT_EQ(fast.max_left, brute.max_left);
    EXPECT_EQ(fast.max_right, brute.max_right);
    for (VertexId v = 0; v < n; ++v) {
      if ((in_left[v] | in_right[v]) != 0) {
        EXPECT_EQ(fast.chi[v], brute.chi[v]) << "vertex " << v;
      }
    }
  }
}

TEST(ButterflyWorkspaceTest, ArgmaxValidForZeroChiSides) {
  // A 4-cycle path of cross edges with no butterfly: chi == 0 everywhere,
  // yet both sides are non-empty, so both argmaxes must be valid vertices.
  LabeledGraph g = LabeledGraph::FromEdges(
      4, {{0, 2}, {1, 3}}, {0, 0, 1, 1});
  std::vector<VertexId> left = {0, 1}, right = {2, 3};
  std::vector<char> in_left = {1, 1, 0, 0}, in_right = {0, 0, 1, 1};
  ButterflyCounts fast = CountButterflies(g, left, right, in_left, in_right);
  EXPECT_EQ(fast.max_left, 0u);
  EXPECT_NE(fast.argmax_left, kInvalidVertex);
  EXPECT_NE(fast.argmax_right, kInvalidVertex);
  ButterflyCounts brute = CountButterfliesBruteForce(g, left, right, in_left, in_right);
  EXPECT_NE(brute.argmax_left, kInvalidVertex);
  EXPECT_NE(brute.argmax_right, kInvalidVertex);
  EXPECT_EQ(fast.argmax_left, brute.argmax_left);
  EXPECT_EQ(fast.argmax_right, brute.argmax_right);
}

TEST(WorkspaceSearchTest, WorkspaceResultsEqualLegacyAcrossOptionGrid) {
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    cfg.seed = seed + 300;
    PlantedGraph pg = GeneratePlanted(cfg);
    const auto& comm = pg.communities[seed % pg.communities.size()];
    BccQuery q{comm.groups[0][0], comm.groups[1][0]};
    BccParams p{2, 2, 1};
    QueryWorkspace ws;
    for (bool bulk : {true, false}) {
      for (bool fast : {true, false}) {
        for (bool leader : {true, false}) {
          SearchOptions opts;
          opts.bulk_delete = bulk;
          opts.fast_query_distance = fast;
          opts.use_leader_pair = leader;
          Community legacy = BccSearch(pg.graph, q, p, opts, nullptr);
          Community warm = BccSearch(pg.graph, q, p, opts, nullptr, &ws);
          EXPECT_EQ(legacy.vertices, warm.vertices)
              << "seed=" << seed << " bulk=" << bulk << " fast=" << fast
              << " leader=" << leader;
        }
      }
    }
  }
}

TEST(WorkspaceSearchTest, SteadyStateLpBccPerformsNoBulkInits) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 10;
  cfg.max_group_size = 16;
  cfg.seed = 9;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BccQuery q2{comm.groups[0][1], comm.groups[1][1]};

  QueryWorkspace ws;
  Community first = LpBcc(pg.graph, q, BccParams{}, nullptr, &ws);   // warm-up
  Community alt = LpBcc(pg.graph, q2, BccParams{}, nullptr, &ws);    // different shape
  const std::uint64_t warm = ws.Stats().bulk_inits;
  ASSERT_GT(warm, 0u);

  for (int i = 0; i < 5; ++i) {
    Community again = LpBcc(pg.graph, q, BccParams{}, nullptr, &ws);
    EXPECT_EQ(again.vertices, first.vertices);
    Community again2 = LpBcc(pg.graph, q2, BccParams{}, nullptr, &ws);
    EXPECT_EQ(again2.vertices, alt.vertices);
  }
  // Zero O(n)-sized allocations/fills after warm-up: the tentpole contract.
  EXPECT_EQ(ws.Stats().bulk_inits, warm);
}

TEST(WorkspaceSearchTest, SteadyStateOnlineAndMbccPerformNoBulkInits) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.seed = 21;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  ASSERT_GE(comm.groups.size(), 3u);
  MbccQuery mq{{comm.groups[0][0], comm.groups[1][0], comm.groups[2][0]}};
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};

  QueryWorkspace ws;
  Community online = OnlineBcc(pg.graph, q, BccParams{}, nullptr, &ws);
  Community mbcc = MbccSearch(pg.graph, mq, MbccParams{}, LpBccOptions(), nullptr, nullptr, &ws);
  const std::uint64_t warm = ws.Stats().bulk_inits;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(OnlineBcc(pg.graph, q, BccParams{}, nullptr, &ws).vertices, online.vertices);
    EXPECT_EQ(
        MbccSearch(pg.graph, mq, MbccParams{}, LpBccOptions(), nullptr, nullptr, &ws).vertices,
        mbcc.vertices);
  }
  EXPECT_EQ(ws.Stats().bulk_inits, warm);
}

TEST(WorkspaceSearchTest, SteadyStateL2pPerformsNoBulkInits) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 10;
  cfg.max_group_size = 16;
  cfg.seed = 33;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[1];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BcIndex index(pg.graph);

  QueryWorkspace ws;
  Community legacy = L2pBcc(pg.graph, index, q, BccParams{});
  Community first = L2pBcc(pg.graph, index, q, BccParams{}, {}, nullptr, &ws);
  EXPECT_EQ(first.vertices, legacy.vertices);
  const std::uint64_t warm = ws.Stats().bulk_inits;
  for (int i = 0; i < 3; ++i) {
    Community again = L2pBcc(pg.graph, index, q, BccParams{}, {}, nullptr, &ws);
    EXPECT_EQ(again.vertices, first.vertices);
  }
  EXPECT_EQ(ws.Stats().bulk_inits, warm);
}

TEST(WorkspaceSearchTest, MbccWorkspaceEqualsLegacy) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.mixed_group_counts = true;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    cfg.seed = seed + 50;
    PlantedGraph pg = GeneratePlanted(cfg);
    const PlantedCommunity* comm3 = nullptr;
    for (const auto& c : pg.communities) {
      if (c.groups.size() >= 3) {
        comm3 = &c;
        break;
      }
    }
    ASSERT_NE(comm3, nullptr);
    MbccQuery mq{{comm3->groups[0][0], comm3->groups[1][0], comm3->groups[2][0]}};
    QueryWorkspace ws;
    for (const SearchOptions& opts : {OnlineBccOptions(), LpBccOptions()}) {
      Community legacy = MbccSearch(pg.graph, mq, MbccParams{}, opts);
      Community warm = MbccSearch(pg.graph, mq, MbccParams{}, opts, nullptr, nullptr, &ws);
      EXPECT_EQ(legacy.vertices, warm.vertices) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace bccs
