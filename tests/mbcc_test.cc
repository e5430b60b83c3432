#include "bcc/mbcc.h"

#include <gtest/gtest.h>

#include <string>

#include "bcc/find_g0.h"
#include "bcc/online_search.h"
#include "bcc/verify.h"
#include "core/label_coreness.h"
#include "graph/generators.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

TEST(MbccTest, TwoLabelsEquivalentToBcc) {
  // Definition 8 with m = 2 coincides with Definition 4; the search result
  // must match the two-label search.
  Figure1Graph f = MakeFigure1Graph();
  MbccQuery q{{f.ql, f.qr}};
  MbccParams p;
  p.k = {4, 3};
  p.b = 1;
  Community mbcc = MbccSearch(f.graph, q, p, LpBccOptions());
  Community bcc = LpBcc(f.graph, BccQuery{f.ql, f.qr}, BccParams{4, 3, 1});
  EXPECT_EQ(mbcc.vertices, bcc.vertices);
}

TEST(MbccTest, RejectsDuplicateLabels) {
  Figure1Graph f = MakeFigure1Graph();
  MbccQuery q{{f.ql, f.v1}};  // both SE
  EXPECT_TRUE(MbccSearch(f.graph, q, MbccParams{}, LpBccOptions()).Empty());
}

TEST(MbccTest, RejectsSingleQuery) {
  Figure1Graph f = MakeFigure1Graph();
  MbccQuery q{{f.ql}};
  EXPECT_TRUE(MbccSearch(f.graph, q, MbccParams{}, LpBccOptions()).Empty());
}

TEST(MbccTest, ResolveCores) {
  Figure1Graph f = MakeFigure1Graph();
  MbccQuery q{{f.ql, f.qr}};
  MbccParams p;  // all auto
  auto ks = ResolveMbccCores(f.graph, q, p);
  EXPECT_EQ(ks, (std::vector<std::uint32_t>{4, 3}));
  p.k = {2, 0};
  ks = ResolveMbccCores(f.graph, q, p);
  EXPECT_EQ(ks, (std::vector<std::uint32_t>{2, 3}));
}

// Builds a 3-label chain community: groups A-B connected by a biclique and
// B-C connected by a biclique, but no A-C cross edges. Cross-group
// connectivity (Definition 7) must hold through the path A-B-C.
LabeledGraph ChainCommunity() {
  std::vector<Edge> edges;
  std::vector<Label> labels(12);
  // Three labeled K4s: {0..3} label 0, {4..7} label 1, {8..11} label 2.
  for (VertexId base : {0u, 4u, 8u}) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) {
        edges.push_back({base + i, base + j});
      }
      labels[base + i] = base / 4;
    }
  }
  // Biclique {0,1} x {4,5} and biclique {6,7} x {8,9}.
  for (VertexId a : {0u, 1u}) {
    for (VertexId b : {4u, 5u}) edges.push_back({a, b});
  }
  for (VertexId a : {6u, 7u}) {
    for (VertexId b : {8u, 9u}) edges.push_back({a, b});
  }
  return LabeledGraph::FromEdges(12, std::move(edges), std::move(labels));
}

TEST(MbccTest, ChainConnectivityAccepted) {
  LabeledGraph g = ChainCommunity();
  MbccQuery q{{0, 4, 8}};
  MbccParams p;
  p.k = {3, 3, 3};
  p.b = 1;
  Community c = MbccSearch(g, q, p, LpBccOptions());
  ASSERT_FALSE(c.Empty());
  EXPECT_EQ(c.vertices.size(), 12u);
  EXPECT_EQ(VerifyMbcc(g, c, q.vertices, p.k, p.b), MbccViolation::kNone);
}

TEST(MbccTest, BrokenChainRejected) {
  // Remove the B-C biclique: label 2 becomes unreachable in the meta-graph.
  std::vector<Edge> edges;
  std::vector<Label> labels(12);
  for (VertexId base : {0u, 4u, 8u}) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) edges.push_back({base + i, base + j});
      labels[base + i] = base / 4;
    }
  }
  for (VertexId a : {0u, 1u}) {
    for (VertexId b : {4u, 5u}) edges.push_back({a, b});
  }
  // Single edge B-C: connectivity of the plain graph holds but there is no
  // butterfly between labels 1 and 2.
  edges.push_back({7, 8});
  LabeledGraph g = LabeledGraph::FromEdges(12, std::move(edges), std::move(labels));
  MbccQuery q{{0, 4, 8}};
  MbccParams p;
  p.k = {3, 3, 3};
  p.b = 1;
  SearchStats stats;
  EXPECT_TRUE(MbccSearch(g, q, p, LpBccOptions(), &stats).Empty());
  // The groups exist but connect no G0, so none is reported (as for a
  // two-label query whose Find-G0 fails its butterfly check).
  EXPECT_EQ(stats.g0_size, 0u);
}

class MbccPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MbccPropertyTest, ValidOnPlantedMultiLabelGraphs) {
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.groups_per_community = 4;
  cfg.num_labels = 6;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.intra_edge_prob = 0.5;
  cfg.cross_pair_prob = 0.15;
  cfg.seed = GetParam() + 60;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[GetParam() % pg.communities.size()];

  for (std::size_t m : {2u, 3u, 4u}) {
    MbccQuery q;
    for (std::size_t i = 0; i < m; ++i) q.vertices.push_back(comm.groups[i][0]);
    MbccParams p;
    p.k.assign(m, 2);
    p.b = 1;
    for (bool leader : {false, true}) {
      SearchOptions opts = leader ? LpBccOptions() : OnlineBccOptions();
      Community c = MbccSearch(pg.graph, q, p, opts);
      ASSERT_FALSE(c.Empty()) << "m=" << m << " leader=" << leader;
      EXPECT_EQ(VerifyMbcc(pg.graph, c, q.vertices, p.k, p.b), MbccViolation::kNone)
          << "m=" << m << " leader=" << leader << " seed=" << GetParam();
    }
  }
}

TEST_P(MbccPropertyTest, LeaderStrategyMatchesOnline) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 5;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.intra_edge_prob = 0.5;
  cfg.cross_pair_prob = 0.2;
  cfg.seed = GetParam() + 90;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  MbccQuery q;
  for (std::size_t i = 0; i < 3; ++i) q.vertices.push_back(comm.groups[i][0]);
  MbccParams p;
  p.k.assign(3, 2);
  Community online = MbccSearch(pg.graph, q, p, OnlineBccOptions());
  Community lp = MbccSearch(pg.graph, q, p, LpBccOptions());
  EXPECT_EQ(online.vertices, lp.vertices);
}

// Every counter the two searches report, beside the answer.
void ExpectSameSearch(const Community& a, const SearchStats& sa, const Community& b,
                      const SearchStats& sb, const std::string& ctx) {
  EXPECT_EQ(a.vertices, b.vertices) << ctx;
  EXPECT_EQ(sa.rounds, sb.rounds) << ctx;
  EXPECT_EQ(sa.butterfly_counting_calls, sb.butterfly_counting_calls) << ctx;
  EXPECT_EQ(sa.leader_rebuilds, sb.leader_rebuilds) << ctx;
  EXPECT_EQ(sa.delta_rounds, sb.delta_rounds) << ctx;
  EXPECT_EQ(sa.delta_fallbacks, sb.delta_fallbacks) << ctx;
  EXPECT_EQ(sa.approx_checks, sb.approx_checks) << ctx;
  EXPECT_EQ(sa.vertices_removed, sb.vertices_removed) << ctx;
  EXPECT_EQ(sa.g0_size, sb.g0_size) << ctx;
  EXPECT_EQ(sa.timed_out, sb.timed_out) << ctx;
}

// The two-label search is the m = 2 case of the mBCC peel: same answers and
// same counters on every cell of the option grid (leader x bulk x
// fast-distance x approx x k in {auto, 2} x b in {1, 3}), with and without
// a pinned label-coreness table, and in L2P's restricted shape.
TEST_P(MbccPropertyTest, TwoLabelsEquivalentToBccAcrossOptionGrid) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 8;
  cfg.max_group_size = 16;
  cfg.intra_edge_prob = 0.5;
  cfg.noise_cross_fraction = 0.2;
  cfg.seed = GetParam() + 1;
  PlantedGraph pg = GeneratePlanted(cfg);
  const LabeledGraph& g = pg.graph;
  const LabelCorenessTable table(g);
  // In-community pairs, then cross-community pairs (often without a BCC).
  std::vector<BccQuery> queries;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& comm = pg.communities[i % pg.communities.size()];
    queries.push_back({comm.groups[0][i % comm.groups[0].size()],
                       comm.groups[1][(3 * i) % comm.groups[1].size()]});
  }
  for (std::size_t i = 0; i < 3; ++i) {
    queries.push_back(
        {pg.communities[i].groups[0][1], pg.communities[i + 3].groups[1][2]});
  }
  // On seed 1, an approx round whose failing estimate the exact check then
  // validated must stay exact: the re-check falls back to it, not to G0.
  queries.push_back({66, 81});
  std::vector<char> restrict_to(g.NumVertices(), 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    restrict_to[v] = (v * 2654435761u) % 10 < 8;
  }

  QueryWorkspace ws;
  for (const BccQuery& q : queries) {
    std::vector<char> in_gt = restrict_to;
    in_gt[q.ql] = in_gt[q.qr] = 1;
    for (int cell = 0; cell < 64; ++cell) {
      SearchOptions opts;
      opts.use_leader_pair = cell & 1;
      opts.bulk_delete = cell & 2;
      opts.fast_query_distance = cell & 4;
      if (cell & 8) {
        opts.approx.enabled = true;
        opts.approx.threshold = 8;
        opts.approx.samples = 64;
        opts.approx.seed = 99;
      }
      const std::uint32_t k = (cell & 16) ? 2 : 0;
      const BccParams bp{k, k, (cell & 32) ? 3u : 1u};
      const MbccParams mp{{k, k}, bp.b};
      const MbccQuery mq{{q.ql, q.qr}};
      const std::string ctx = "seed=" + std::to_string(cfg.seed) + " q=(" +
                              std::to_string(q.ql) + "," + std::to_string(q.qr) +
                              ") cell=" + std::to_string(cell);
      for (const LabelCorenessTable* pinned :
           {static_cast<const LabelCorenessTable*>(nullptr), &table}) {
        ws.PinLabelCoreness(pinned);
        SearchStats sa, sb;
        Community a = BccSearch(g, q, bp, opts, &sa, &ws);
        Community b = MbccSearch(g, mq, mp, opts, &sb, nullptr, &ws);
        ExpectSameSearch(a, sa, b, sb, ctx + (pinned ? " table" : ""));
      }
      ws.PinLabelCoreness(nullptr);
      SearchStats sa, sb;
      G0Result g0 = FindG0Restricted(g, q, bp, &in_gt, &sa, &ws);
      Community a = PeelToBcc(g, g0, q, opts, bp.b, &sa, &ws);
      ReleaseG0Counts(&ws, &g0);
      Community b = MbccSearch(g, mq, mp, opts, &sb, &in_gt, &ws);
      ExpectSameSearch(a, sa, b, sb, ctx + " restricted");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbccPropertyTest, ::testing::Range<std::uint64_t>(0, 5));

}  // namespace
}  // namespace bccs
