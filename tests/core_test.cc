#include "core/core_decomposition.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/core_maintenance.h"
#include "core/label_coreness.h"
#include "graph/graph_delta.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::AllVertices;
using testing::MakeClique;
using testing::MakeCycle;
using testing::MakePath;
using testing::MakeRandomGraph;
using testing::NaiveCoreness;

TEST(CoreDecompositionTest, Clique) {
  LabeledGraph g = MakeClique(6);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(core[v], 5u);
}

TEST(CoreDecompositionTest, Cycle) {
  LabeledGraph g = MakeCycle(8);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(core[v], 2u);
}

TEST(CoreDecompositionTest, Path) {
  LabeledGraph g = MakePath(5);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(core[v], 1u);
}

TEST(CoreDecompositionTest, Star) {
  std::vector<Edge> edges;
  for (VertexId i = 1; i < 6; ++i) edges.push_back({0, i});
  LabeledGraph g = LabeledGraph::FromEdges(6, std::move(edges), std::vector<Label>(6, 0));
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(core[v], 1u);
}

TEST(CoreDecompositionTest, CliqueWithTail) {
  // K4 {0..3} with a path 3-4-5 hanging off.
  std::vector<Edge> edges = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}};
  LabeledGraph g = LabeledGraph::FromEdges(6, std::move(edges), std::vector<Label>(6, 0));
  auto core = CoreDecomposition(g);
  EXPECT_EQ(core[0], 3u);
  EXPECT_EQ(core[3], 3u);
  EXPECT_EQ(core[4], 1u);
  EXPECT_EQ(core[5], 1u);
}

class CoreDecompositionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoreDecompositionPropertyTest, MatchesNaivePeeling) {
  LabeledGraph g = MakeRandomGraph(40, 0.15, 1, GetParam());
  auto members = AllVertices(g);
  auto fast = SubsetCoreness(g, members);
  auto naive = NaiveCoreness(g, members);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(fast[v], naive[v]) << "vertex " << v << " seed " << GetParam();
  }
}

TEST_P(CoreDecompositionPropertyTest, KCoreOfSubsetIsMaximalAndValid) {
  LabeledGraph g = MakeRandomGraph(50, 0.12, 1, GetParam() + 1000);
  auto members = AllVertices(g);
  for (std::uint32_t k = 1; k <= 4; ++k) {
    auto core = KCoreOfSubset(g, members, k);
    auto mask = testing::MaskOf(g, core);
    // Validity: induced min degree >= k.
    for (VertexId v : core) {
      std::uint32_t d = 0;
      for (VertexId w : g.Neighbors(v)) d += mask[w];
      EXPECT_GE(d, k);
    }
    // Agreement with coreness: v in k-core iff coreness >= k.
    auto coreness = SubsetCoreness(g, members);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(mask[v] != 0, coreness[v] >= k) << "v=" << v << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreDecompositionPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(LabelCorenessTest, IgnoresCrossEdges) {
  // Two labeled triangles joined by cross edges: label coreness must be the
  // triangle coreness (2), unaffected by the cross edges.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5},
                             {0, 3}, {1, 4}, {2, 5}};
  LabeledGraph g = LabeledGraph::FromEdges(6, std::move(edges), {0, 0, 0, 1, 1, 1});
  auto core = LabelCoreness(g);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(core[v], 2u);
}

TEST(LabelCorenessTest, PaperFigure1) {
  Figure1Graph f = MakeFigure1Graph();
  auto core = LabelCoreness(f.graph);
  // "the maximum core value of q_l, q_r are 4 and 3 respectively"
  EXPECT_EQ(core[f.ql], 4u);
  EXPECT_EQ(core[f.qr], 3u);
  EXPECT_EQ(core[f.v5], 4u);
  EXPECT_EQ(core[f.u3], 3u);
  // Peripheral vertices peel out at lower core levels.
  EXPECT_LT(core[f.v8], 4u);
  EXPECT_LT(core[f.u5], 3u);
}

class LabelCorenessTablePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// The table's one-BFS component equals the two-peel reference (k-core of the
// label group, then the component containing q) for every vertex and k.
TEST_P(LabelCorenessTablePropertyTest, CoreComponentMatchesPeelThenComponent) {
  const LabeledGraph g = MakeRandomGraph(60, 0.15, 3, GetParam() + 2000);
  const LabelCorenessTable table(g);
  CoreScratch scratch;
  std::vector<VertexId> got;
  for (VertexId q = 0; q < g.NumVertices(); ++q) {
    const auto group = g.VerticesWithLabel(g.LabelOf(q));
    for (std::uint32_t k = 1; k <= table.Coreness(q) + 1; ++k) {
      LabelCoreComponent(g, table, q, k, &scratch, &got);
      EXPECT_EQ(got, ComponentContaining(g, KCoreOfSubset(g, group, k), q))
          << "q=" << q << " k=" << k;
    }
  }
  for (char c : scratch.mask) ASSERT_EQ(c, 0);  // visited marks cleared
}

// A repaired table equals a fresh one on the updated graph, on every path:
// incremental deletes, incremental inserts, past the cap, and mixed.
TEST_P(LabelCorenessTablePropertyTest, ApplyUpdatesMatchesRebuild) {
  const LabeledGraph g = MakeRandomGraph(60, 0.15, 2, GetParam() + 3000);
  const LabelCorenessTable table(g);
  std::vector<Edge> present = g.AllEdges();
  std::vector<Edge> absent;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices() && absent.size() < 40; ++v) {
      if (!g.HasEdge(u, v)) absent.push_back({u, v});
    }
  }
  struct Case {
    std::size_t inserts, deletes, cap;
  };
  for (const Case c : {Case{0, 4, 8}, Case{4, 0, 8}, Case{0, 12, 4}, Case{3, 3, 8}}) {
    std::vector<EdgeUpdate> batch;
    for (std::size_t i = 0; i < c.inserts; ++i) {
      batch.push_back({EdgeUpdateKind::kInsert, absent[(i * 7 + GetParam()) % absent.size()]});
    }
    for (std::size_t i = 0; i < c.deletes; ++i) {
      batch.push_back({EdgeUpdateKind::kDelete, present[(i * 5 + GetParam()) % present.size()]});
    }
    std::string error;
    const auto delta = BuildGraphDelta(g, batch, &error);
    ASSERT_TRUE(delta.has_value()) << error;
    const LabeledGraph updated = ApplyGraphDelta(g, *delta);
    LabelCorenessRepairStats st;
    const auto repaired = table.ApplyUpdates(updated, *delta, c.cap, &st);
    const LabelCorenessTable fresh(updated);
    EXPECT_TRUE(std::ranges::equal(repaired->coreness(), fresh.coreness()))
        << c.inserts << "+" << c.deletes;
    EXPECT_TRUE(std::ranges::equal(repaired->max_per_label(), fresh.max_per_label()));
    EXPECT_EQ(st.labels_touched, st.labels_incremental + st.labels_rebuilt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelCorenessTablePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(ComponentContainingTest, Basics) {
  // Two disjoint triangles.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}};
  LabeledGraph g = LabeledGraph::FromEdges(6, std::move(edges), std::vector<Label>(6, 0));
  auto members = AllVertices(g);
  EXPECT_EQ(ComponentContaining(g, members, 0), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(ComponentContaining(g, members, 4), (std::vector<VertexId>{3, 4, 5}));
  // Restricting membership splits components.
  std::vector<VertexId> partial = {0, 2};
  EXPECT_EQ(ComponentContaining(g, partial, 0), (std::vector<VertexId>{0, 2}));
  // Query outside the member set.
  EXPECT_TRUE(ComponentContaining(g, partial, 1).empty());
}

TEST(KCoreMaintainerTest, PeelsAtConstruction) {
  // K4 plus a tail: the 3-core is exactly the K4.
  std::vector<Edge> edges = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}};
  LabeledGraph g = LabeledGraph::FromEdges(6, std::move(edges), std::vector<Label>(6, 0));
  KCoreMaintainer m(g, AllVertices(g), 3);
  EXPECT_EQ(m.NumAlive(), 4u);
  EXPECT_TRUE(m.Contains(0));
  EXPECT_FALSE(m.Contains(4));
}

TEST(KCoreMaintainerTest, RemoveCascades) {
  // K4: removing any vertex of a 3-core K4 collapses everything.
  LabeledGraph g = MakeClique(4);
  KCoreMaintainer m(g, AllVertices(g), 3);
  auto removed = m.Remove(0);
  EXPECT_EQ(removed.size(), 4u);
  EXPECT_EQ(m.NumAlive(), 0u);
  // Removing an already-dead vertex is a no-op.
  EXPECT_TRUE(m.Remove(0).empty());
}

class KCoreMaintainerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KCoreMaintainerPropertyTest, MatchesRecomputationUnderDeletions) {
  LabeledGraph g = MakeRandomGraph(45, 0.15, 1, GetParam() + 77);
  const std::uint32_t k = 3;
  KCoreMaintainer m(g, AllVertices(g), k);
  std::vector<VertexId> survivors = m.AliveVertices();
  std::mt19937_64 rng(GetParam());
  while (m.NumAlive() > 0) {
    // Delete a random alive vertex, then compare against full recomputation.
    std::vector<VertexId> alive = m.AliveVertices();
    VertexId victim = alive[rng() % alive.size()];
    m.Remove(victim);
    std::vector<VertexId> remaining;
    for (VertexId v : alive) {
      if (v != victim) remaining.push_back(v);
    }
    auto expected = KCoreOfSubset(g, remaining, k);
    EXPECT_EQ(m.AliveVertices(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KCoreMaintainerPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 5));

}  // namespace
}  // namespace bccs
