#include "bcc/query_distance.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::DeleteAndCheckRepair;
using testing::MakePath;
using testing::MakeRandomGraph;

TEST(BfsDistancesTest, Path) {
  LabeledGraph g = MakePath(5);
  std::vector<char> alive(5, 1);
  std::vector<std::uint32_t> dist;
  BfsDistances(g, alive, 0, &dist);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsDistancesTest, DeadSource) {
  LabeledGraph g = MakePath(3);
  std::vector<char> alive = {0, 1, 1};
  std::vector<std::uint32_t> dist;
  BfsDistances(g, alive, 0, &dist);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(dist[v], kInfDistance);
}

TEST(BfsDistancesTest, MaskBlocksPaths) {
  LabeledGraph g = MakePath(5);
  std::vector<char> alive = {1, 1, 0, 1, 1};  // cut at vertex 2
  std::vector<std::uint32_t> dist;
  BfsDistances(g, alive, 0, &dist);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kInfDistance);
  EXPECT_EQ(dist[3], kInfDistance);
  EXPECT_EQ(dist[4], kInfDistance);
}

TEST(FastQueryDistanceTest, PaperTable2) {
  Figure3Graph f = MakeFigure3Graph();
  const LabeledGraph& g = f.graph;
  std::vector<char> alive(g.NumVertices(), 1);
  DistanceMap dl, dr;
  BfsDistances(g, alive, f.ql, &dl);
  BfsDistances(g, alive, f.qr, &dr);

  // Table 2, rows "q_l" and "q_r" before the deletion.
  for (VertexId v : {f.v1, f.v2, f.v3}) EXPECT_EQ(dl.Get(v), 1u);
  for (VertexId v : {f.u2, f.u3, f.u5, f.u6}) EXPECT_EQ(dl.Get(v), 2u);
  for (VertexId v : {f.qr, f.u1, f.u4, f.u7}) EXPECT_EQ(dl.Get(v), 3u);
  EXPECT_EQ(dl.Get(f.u9), 4u);

  for (VertexId v : {f.u1, f.u2, f.u3, f.u9}) EXPECT_EQ(dr.Get(v), 1u);
  for (VertexId v : {f.v1, f.v3, f.u4, f.u5, f.u7}) EXPECT_EQ(dr.Get(v), 2u);
  for (VertexId v : {f.ql, f.v2, f.u6}) EXPECT_EQ(dr.Get(v), 3u);

  // Delete u9 (the unique farthest vertex) and repair.
  alive[f.u9] = 0;
  const VertexId removed[] = {f.u9};
  std::vector<VertexId> changed_l, changed_r;
  UpdateDistancesAfterDeletion(g, alive, removed, &dl, &changed_l);
  UpdateDistancesAfterDeletion(g, alive, removed, &dr, &changed_r);

  // "after the deletion of u9": q_l row unchanged, q_r row has u4 and u7
  // moving from distance 2 to 3 (the bold entries of Table 2) — and those
  // two are exactly what the repair reports.
  for (VertexId v : {f.v1, f.v2, f.v3}) EXPECT_EQ(dl.Get(v), 1u);
  for (VertexId v : {f.u2, f.u3, f.u5, f.u6}) EXPECT_EQ(dl.Get(v), 2u);
  for (VertexId v : {f.qr, f.u1, f.u4, f.u7}) EXPECT_EQ(dl.Get(v), 3u);
  EXPECT_EQ(dl.Get(f.u9), kInfDistance);
  EXPECT_TRUE(changed_l.empty());

  for (VertexId v : {f.u1, f.u2, f.u3}) EXPECT_EQ(dr.Get(v), 1u);
  for (VertexId v : {f.v1, f.v3, f.u5}) EXPECT_EQ(dr.Get(v), 2u);
  for (VertexId v : {f.ql, f.v2, f.u6, f.u4, f.u7}) EXPECT_EQ(dr.Get(v), 3u);
  EXPECT_EQ(dr.Get(f.u9), kInfDistance);
  std::sort(changed_r.begin(), changed_r.end());
  std::vector<VertexId> moved = {f.u4, f.u7};
  std::sort(moved.begin(), moved.end());
  EXPECT_EQ(changed_r, moved);

  // Both maps against a fresh BFS of the surviving graph.
  std::vector<std::uint32_t> fresh;
  BfsDistances(g, alive, f.ql, &fresh);
  for (VertexId v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(dl.Get(v), fresh[v]);
  BfsDistances(g, alive, f.qr, &fresh);
  for (VertexId v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(dr.Get(v), fresh[v]);
}

class FastQueryDistancePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastQueryDistancePropertyTest, MatchesFullRecomputation) {
  LabeledGraph g = MakeRandomGraph(60, 0.08, 1, GetParam());
  std::mt19937_64 rng(GetParam() + 1);
  VertexId source = static_cast<VertexId>(rng() % g.NumVertices());

  std::vector<char> alive(g.NumVertices(), 1);
  DistanceMap dm;
  BfsDistances(g, alive, source, &dm);

  // Random deletion batches, never deleting the source.
  std::vector<VertexId> pool;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v != source) pool.push_back(v);
  }
  std::shuffle(pool.begin(), pool.end(), rng);

  std::size_t cursor = 0;
  while (cursor < pool.size()) {
    std::size_t batch_size = 1 + rng() % 4;
    std::vector<VertexId> batch;
    for (std::size_t i = 0; i < batch_size && cursor < pool.size(); ++i) {
      batch.push_back(pool[cursor++]);
    }
    SCOPED_TRACE(::testing::Message() << cursor << " deletions, seed " << GetParam());
    ASSERT_NO_FATAL_FAILURE(DeleteAndCheckRepair(g, source, batch, &alive, &dm));
  }
}

TEST_P(FastQueryDistancePropertyTest, DistancesNeverDecrease) {
  LabeledGraph g = MakeRandomGraph(40, 0.12, 1, GetParam() + 333);
  std::mt19937_64 rng(GetParam());
  VertexId source = 0;
  std::vector<char> alive(g.NumVertices(), 1);
  DistanceMap dm;
  BfsDistances(g, alive, source, &dm);
  for (int step = 0; step < 10; ++step) {
    VertexId victim = static_cast<VertexId>(1 + rng() % (g.NumVertices() - 1));
    if (!alive[victim]) continue;
    std::vector<std::uint32_t> before(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) before[v] = dm.Get(v);
    SCOPED_TRACE(::testing::Message() << "step " << step << ", seed " << GetParam());
    ASSERT_NO_FATAL_FAILURE(DeleteAndCheckRepair(g, source, {victim}, &alive, &dm));
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (!alive[v]) continue;
      if (before[v] == kInfDistance) {
        EXPECT_EQ(dm.Get(v), kInfDistance);
      } else {
        EXPECT_GE(dm.Get(v), before[v]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastQueryDistancePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- Hard cases for the decremental repair, on ~400-vertex graphs. ---

// G(n, p) plus a hub source adjacent to about `hub_frac` of the vertices.
LabeledGraph MakeHubGraph(std::size_t n, double p, double hub_frac, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution edge(p), spoke(hub_frac);
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      if (i == 0 ? spoke(rng) : edge(rng)) edges.push_back({i, j});
    }
  }
  return LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, 0));
}

std::vector<VertexId> AliveAtDistance(const DistanceMap& dm, const std::vector<char>& alive,
                                      std::uint32_t d) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < alive.size(); ++v) {
    if (alive[v] && dm.Get(v) == d) out.push_back(v);
  }
  return out;
}

class DecrementalRepairTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecrementalRepairTest, BatchesAtDistanceOne) {
  // The expensive case for a reset-everything-deeper repair: every batch
  // sits right next to the source.
  LabeledGraph g = MakeHubGraph(400, 0.012, 0.2, GetParam());
  std::mt19937_64 rng(GetParam() + 7);
  std::vector<char> alive(g.NumVertices(), 1);
  DistanceMap dm;
  BfsDistances(g, alive, 0, &dm);
  int rounds = 0;
  for (; rounds < 40; ++rounds) {
    std::vector<VertexId> level1 = AliveAtDistance(dm, alive, 1);
    if (level1.empty()) break;
    std::shuffle(level1.begin(), level1.end(), rng);
    level1.resize(std::min<std::size_t>(level1.size(), 1 + rng() % 2));
    SCOPED_TRACE(::testing::Message() << "round " << rounds << ", seed " << GetParam());
    ASSERT_NO_FATAL_FAILURE(DeleteAndCheckRepair(g, 0, level1, &alive, &dm));
  }
  EXPECT_GE(rounds, 30);
}

TEST_P(DecrementalRepairTest, CutOffComponentsBecomeUnreachable) {
  // A 100-vertex random core holding the source, and 30 pendant clusters of
  // 10 vertices, each hanging off the core through one cut vertex.
  // Deleting a cut vertex must send its whole cluster to kInfDistance.
  std::mt19937_64 rng(GetParam());
  std::bernoulli_distribution core_edge(0.06), cluster_edge(0.4);
  constexpr VertexId kCore = 100, kClusters = 30, kClusterSize = 10;
  const std::size_t n = kCore + kClusters * kClusterSize;
  std::vector<Edge> edges;
  for (VertexId i = 0; i < kCore; ++i) {
    edges.push_back({i, static_cast<VertexId>((i + 1) % kCore)});  // keeps the core connected
    for (VertexId j = i + 2; j < kCore; ++j) {
      if (core_edge(rng)) edges.push_back({i, j});
    }
  }
  std::vector<VertexId> cut_vertices;
  for (VertexId c = 0; c < kClusters; ++c) {
    const VertexId first = kCore + c * kClusterSize;
    cut_vertices.push_back(first);
    edges.push_back({static_cast<VertexId>(1 + rng() % (kCore - 1)), first});
    for (VertexId i = first; i < first + kClusterSize; ++i) {
      if (i + 1 < first + kClusterSize) edges.push_back({i, static_cast<VertexId>(i + 1)});
      for (VertexId j = i + 2; j < first + kClusterSize; ++j) {
        if (cluster_edge(rng)) edges.push_back({i, j});
      }
    }
  }
  LabeledGraph g = LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, 0));
  std::vector<char> alive(n, 1);
  DistanceMap dm;
  BfsDistances(g, alive, 0, &dm);
  std::shuffle(cut_vertices.begin(), cut_vertices.end(), rng);
  for (std::size_t round = 0; round < cut_vertices.size(); ++round) {
    const VertexId cut = cut_vertices[round];
    SCOPED_TRACE(::testing::Message() << "round " << round << ", seed " << GetParam());
    ASSERT_NO_FATAL_FAILURE(DeleteAndCheckRepair(g, 0, {cut}, &alive, &dm));
    for (VertexId v = cut + 1; v < cut + kClusterSize; ++v) {
      EXPECT_EQ(dm.Get(v), kInfDistance);
    }
  }
}

TEST_P(DecrementalRepairTest, SourceDeletion) {
  // Random batches, the source among them halfway through: everything it
  // reached moves to kInfDistance, and later batches change nothing.
  LabeledGraph g = MakeRandomGraph(400, 0.015, 1, GetParam() + 50);
  std::mt19937_64 rng(GetParam() + 3);
  const VertexId source = static_cast<VertexId>(rng() % g.NumVertices());
  std::vector<char> alive(g.NumVertices(), 1);
  DistanceMap dm;
  BfsDistances(g, alive, source, &dm);
  for (int round = 0; round < 32; ++round) {
    std::vector<VertexId> batch;
    if (round == 16) batch.push_back(source);
    for (int t = 0; t < 6 && batch.size() < 3; ++t) {
      VertexId v = static_cast<VertexId>(rng() % g.NumVertices());
      if (alive[v] && v != source && std::find(batch.begin(), batch.end(), v) == batch.end()) {
        batch.push_back(v);
      }
    }
    SCOPED_TRACE(::testing::Message() << "round " << round << ", seed " << GetParam());
    ASSERT_NO_FATAL_FAILURE(DeleteAndCheckRepair(g, source, batch, &alive, &dm));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(dm.Get(v), kInfDistance);
}

TEST_P(DecrementalRepairTest, CoreCascadeBatches) {
  // LP's peel shape: each batch is the farthest layer (or the unreachable
  // vertices, which LP pops first) plus the vertices a 2-core cascade then
  // strips, which sit at every level down to the source. The source is
  // exempt from the cascade, as LP ends when a query dies. A 10x40 grid with
  // missing edges and random diagonals is deep enough for 30+ rounds.
  constexpr VertexId kRows = 10, kCols = 40;
  const std::size_t n = kRows * kCols;
  std::mt19937_64 rng(GetParam());
  std::vector<Edge> edges;
  for (VertexId r = 0; r < kRows; ++r) {
    for (VertexId c = 0; c < kCols; ++c) {
      const VertexId v = r * kCols + c;
      if (c + 1 < kCols && rng() % 8 != 0) edges.push_back({v, v + 1});
      if (r + 1 < kRows && rng() % 8 != 0) edges.push_back({v, v + kCols});
      if (r + 1 < kRows && c + 1 < kCols && rng() % 4 == 0) edges.push_back({v, v + kCols + 1});
    }
  }
  LabeledGraph g = LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, 0));
  std::vector<char> alive(n, 1);
  DistanceMap dm;
  BfsDistances(g, alive, 0, &dm);
  int rounds = 0;
  while (true) {
    std::vector<VertexId> batch = AliveAtDistance(dm, alive, kInfDistance);
    if (batch.empty()) {
      std::uint32_t far = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (alive[v]) far = std::max(far, dm.Get(v));
      }
      if (far == 0) break;
      batch = AliveAtDistance(dm, alive, far);
    }
    // Cascade on a scratch copy of `alive`; DeleteAndCheckRepair applies
    // the whole batch at once.
    std::vector<char> left = alive;
    for (VertexId v : batch) left[v] = 0;
    for (bool grew = true; grew;) {
      grew = false;
      for (VertexId v = 1; v < n; ++v) {
        std::uint32_t deg = 0;
        for (VertexId w : g.Neighbors(v)) deg += left[w];
        if (left[v] && deg < 2) {
          left[v] = 0;
          batch.push_back(v);
          grew = true;
        }
      }
    }
    SCOPED_TRACE(::testing::Message() << "round " << rounds << ", seed " << GetParam());
    ASSERT_NO_FATAL_FAILURE(DeleteAndCheckRepair(g, 0, batch, &alive, &dm));
    ++rounds;
  }
  EXPECT_GE(rounds, 30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecrementalRepairTest, ::testing::Range<std::uint64_t>(0, 4));

}  // namespace
}  // namespace bccs
