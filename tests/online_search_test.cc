#include "bcc/online_search.h"

#include <gtest/gtest.h>

#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/query_distance.h"
#include "bcc/verify.h"
#include "core/label_coreness.h"
#include "graph/generators.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

// Brute-force minimum-diameter BCC by subset enumeration over the G0
// vertices. Only usable for |G0| <= ~16.
std::uint32_t BruteForceOptimalDiameter(const LabeledGraph& g, const G0Result& g0,
                                        const BccQuery& q, const BccParams& p) {
  std::vector<VertexId> universe = g0.left;
  universe.insert(universe.end(), g0.right.begin(), g0.right.end());
  const std::size_t n = universe.size();
  EXPECT_LE(n, 16u);
  std::uint32_t best = kInfDistance;
  BccParams resolved = p;
  resolved.k1 = g0.k1;
  resolved.k2 = g0.k2;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    Community c;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) c.vertices.push_back(universe[i]);
    }
    std::sort(c.vertices.begin(), c.vertices.end());
    if (VerifyBcc(g, c, q, resolved) != BccViolation::kNone) continue;
    best = std::min(best, CommunityDiameter(g, c));
  }
  return best;
}

TEST(OnlineSearchTest, PaperFigure1Answer) {
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.ql, f.qr};
  BccParams p{4, 3, 1};
  Community c = OnlineBcc(f.graph, q, p);
  EXPECT_EQ(c.vertices, f.expected_bcc);
  EXPECT_EQ(VerifyBcc(f.graph, c, q, p), BccViolation::kNone);
}

TEST(OnlineSearchTest, LpBccSameAnswerOnFigure1) {
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.ql, f.qr};
  BccParams p{4, 3, 1};
  EXPECT_EQ(LpBcc(f.graph, q, p).vertices, f.expected_bcc);
}

TEST(OnlineSearchTest, AutoParamsOnFigure1) {
  Figure1Graph f = MakeFigure1Graph();
  Community c = OnlineBcc(f.graph, BccQuery{f.ql, f.qr}, BccParams{});
  EXPECT_EQ(c.vertices, f.expected_bcc);
}

TEST(OnlineSearchTest, EmptyWhenNoBcc) {
  Figure1Graph f = MakeFigure1Graph();
  Community c = OnlineBcc(f.graph, BccQuery{f.ql, f.qr}, BccParams{4, 3, 5});
  EXPECT_TRUE(c.Empty());
}

TEST(OnlineSearchTest, StatsArePopulated) {
  Figure1Graph f = MakeFigure1Graph();
  SearchStats stats;
  OnlineBcc(f.graph, BccQuery{f.ql, f.qr}, BccParams{4, 3, 1}, &stats);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_GE(stats.butterfly_counting_calls, 1u);
  EXPECT_EQ(stats.g0_size, 10u);
  EXPECT_GE(stats.total_seconds, 0.0);
}

// The five phase timers bill disjoint intervals of one steady clock inside
// the search's total, so they never sum past it (Find-G0's butterfly count
// is billed to butterfly_seconds only). 1e-9 s absorbs rounding.
TEST(OnlineSearchTest, PhaseTimersSumToAtMostTotal) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 16;
  cfg.intra_edge_prob = 0.5;
  cfg.noise_cross_fraction = 0.2;
  cfg.seed = 7;
  PlantedGraph pg = GeneratePlanted(cfg);
  const LabeledGraph& g = pg.graph;
  const LabelCorenessTable table(g);
  const BcIndex index(g);
  auto phase_sum = [](const SearchStats& s) {
    return s.find_g0_seconds + s.query_distance_seconds + s.butterfly_seconds +
           s.butterfly_delta_seconds + s.leader_update_seconds;
  };
  QueryWorkspace ws;
  for (const LabelCorenessTable* pinned :
       {static_cast<const LabelCorenessTable*>(nullptr), &table}) {
    ws.PinLabelCoreness(pinned);
    for (std::size_t i = 0; i < pg.communities.size(); ++i) {
      const auto& comm = pg.communities[i];
      const auto& other = pg.communities[(i + 1) % pg.communities.size()];
      for (const BccQuery& q : {BccQuery{comm.groups[0][0], comm.groups[1][0]},
                                BccQuery{comm.groups[0][1], other.groups[1][1]}}) {
        SearchStats online, lp, l2p, mbcc;
        OnlineBcc(g, q, BccParams{}, &online, &ws);
        LpBcc(g, q, BccParams{}, &lp, &ws);
        L2pBcc(g, index, q, BccParams{}, L2pOptions{}, &l2p, &ws);
        const MbccQuery mq{{comm.groups[0][0], comm.groups[1][0], comm.groups[2][0]}};
        MbccSearch(g, mq, MbccParams{}, LpBccOptions(), &mbcc, nullptr, &ws);
        for (const SearchStats* s : {&online, &lp, &l2p, &mbcc}) {
          EXPECT_LE(phase_sum(*s), s->total_seconds + 1e-9)
              << "community " << i << " table=" << (pinned != nullptr);
        }
      }
    }
  }
  ws.PinLabelCoreness(nullptr);
}

struct PeelCase {
  std::uint64_t seed;
  bool bulk;
};

class OnlineSearchPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineSearchPropertyTest, ResultIsValidBccOnPlantedGraphs) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  cfg.seed = GetParam();
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[GetParam() % pg.communities.size()];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BccParams p{2, 2, 1};

  for (bool bulk : {true, false}) {
    for (bool fast : {true, false}) {
      for (bool leader : {true, false}) {
        SearchOptions opts;
        opts.bulk_delete = bulk;
        opts.fast_query_distance = fast;
        opts.use_leader_pair = leader;
        Community c = BccSearch(pg.graph, q, p, opts, nullptr);
        ASSERT_FALSE(c.Empty())
            << "bulk=" << bulk << " fast=" << fast << " leader=" << leader;
        EXPECT_EQ(VerifyBcc(pg.graph, c, q, p), BccViolation::kNone)
            << "bulk=" << bulk << " fast=" << fast << " leader=" << leader;
      }
    }
  }
}

TEST_P(OnlineSearchPropertyTest, LpEqualsOnline) {
  // The LP strategies (Algorithm 5 + leader pair) are exact accelerations:
  // the deletion sequence, and hence the final community, must be identical.
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.min_group_size = 8;
  cfg.max_group_size = 16;
  cfg.intra_edge_prob = 0.45;
  cfg.noise_cross_fraction = 0.2;
  cfg.seed = GetParam() + 40;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  BccQuery q{comm.groups[0][1], comm.groups[1][1]};
  BccParams p{};  // auto
  Community online = OnlineBcc(pg.graph, q, p);
  Community lp = LpBcc(pg.graph, q, p);
  EXPECT_EQ(online.vertices, lp.vertices);
}

TEST_P(OnlineSearchPropertyTest, LeaderPairReducesButterflyCounting) {
  PlantedConfig cfg;
  cfg.num_communities = 8;
  cfg.min_group_size = 10;
  cfg.max_group_size = 20;
  cfg.intra_edge_prob = 0.45;
  cfg.seed = GetParam() + 80;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  SearchStats online_stats, lp_stats;
  OnlineBcc(pg.graph, q, BccParams{}, &online_stats);
  LpBcc(pg.graph, q, BccParams{}, &lp_stats);
  EXPECT_LE(lp_stats.butterfly_counting_calls, online_stats.butterfly_counting_calls);
}

TEST_P(OnlineSearchPropertyTest, TwoApproximationOnTinyInstances) {
  // Build tiny instances whose G0 has <= 14 vertices and compare against the
  // brute-force optimal diameter (Theorem 3).
  PlantedConfig cfg;
  cfg.num_communities = 1;
  cfg.min_group_size = 5;
  cfg.max_group_size = 7;
  cfg.intra_edge_prob = 0.6;
  cfg.cross_pair_prob = 0.25;
  cfg.noise_cross_fraction = 0;
  cfg.seed = GetParam() + 7;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BccParams p{2, 2, 1};
  SearchStats stats;
  G0Result g0 = FindG0(pg.graph, q, p, &stats);
  if (!g0.found || g0.left.size() + g0.right.size() > 14) {
    GTEST_SKIP() << "instance too large for brute force";
  }
  std::uint32_t optimal = BruteForceOptimalDiameter(pg.graph, g0, q, p);
  ASSERT_NE(optimal, kInfDistance);
  Community c = OnlineBcc(pg.graph, q, p);
  ASSERT_FALSE(c.Empty());
  EXPECT_LE(CommunityDiameter(pg.graph, c), 2 * optimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineSearchPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(OnlineSearchTest, SingleDeletionMatchesBulkValidity) {
  // Single-vertex deletion (the literal Algorithm 1) also returns a valid
  // BCC, possibly different from bulk deletion but never worse than 2x the
  // query distance bound.
  Figure1Graph f = MakeFigure1Graph();
  SearchOptions opts;
  opts.bulk_delete = false;
  BccQuery q{f.ql, f.qr};
  BccParams p{4, 3, 1};
  Community c = BccSearch(f.graph, q, p, opts, nullptr);
  EXPECT_EQ(VerifyBcc(f.graph, c, q, p), BccViolation::kNone);
}

TEST(OnlineSearchTest, AdjacentQueriesSmallCommunity) {
  // Queries adjacent to each other: the result must still contain both and
  // be a valid BCC.
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.v5, f.u3};  // adjacent cross pair inside the community
  BccParams p{4, 3, 1};
  Community c = OnlineBcc(f.graph, q, p);
  ASSERT_FALSE(c.Empty());
  EXPECT_TRUE(c.Contains(f.v5));
  EXPECT_TRUE(c.Contains(f.u3));
  EXPECT_EQ(VerifyBcc(f.graph, c, q, p), BccViolation::kNone);
}

TEST(OnlineSearchTest, DistanceRepairIdenticalToFullBfsOnDeepPeel) {
  // A planted graph whose LP peel runs 15+ rounds: the incremental distance
  // repair and a full BFS every round must give the same members and the
  // same round count, for LP-BCC and for LP-mBCC.
  PlantedConfig cfg;
  cfg.num_communities = 150;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.background_vertices = 300;
  cfg.noise_same_fraction = 0.04;
  cfg.seed = 7;
  PlantedGraph pg = GeneratePlanted(cfg);
  const PlantedCommunity& comm = pg.communities[0];
  SearchOptions repair = LpBccOptions();
  ASSERT_TRUE(repair.fast_query_distance);
  SearchOptions full_bfs = repair;
  full_bfs.fast_query_distance = false;

  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  SearchStats s_repair, s_full;
  Community a = BccSearch(pg.graph, q, BccParams{}, repair, &s_repair);
  Community b = BccSearch(pg.graph, q, BccParams{}, full_bfs, &s_full);
  EXPECT_GE(s_repair.rounds, 15u);
  EXPECT_FALSE(a.Empty());
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(s_repair.rounds, s_full.rounds);

  MbccQuery mq{{comm.groups[0][0], comm.groups[1][0], comm.groups[2][0]}};
  SearchStats m_repair, m_full;
  Community ma = MbccSearch(pg.graph, mq, MbccParams{}, repair, &m_repair);
  Community mb = MbccSearch(pg.graph, mq, MbccParams{}, full_bfs, &m_full);
  EXPECT_GE(m_repair.rounds, 15u);
  EXPECT_FALSE(ma.Empty());
  EXPECT_EQ(ma.vertices, mb.vertices);
  EXPECT_EQ(m_repair.rounds, m_full.rounds);
}

}  // namespace
}  // namespace bccs
