#include "eval/serve_engine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/find_g0.h"
#include "bcc/verify.h"
#include "core/core_decomposition.h"
#include "eval/query_gen.h"
#include "graph/generators.h"

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

// Resolves auto core parameters the way the search does, then verifies.
BccViolation VerifyResolved(const LabeledGraph& g, const Community& c, const BccQuery& q,
                            BccParams p) {
  SearchStats tmp;
  G0Result g0 = FindG0(g, q, p, &tmp);
  p.k1 = g0.k1;
  p.k2 = g0.k2;
  return VerifyBcc(g, c, q, p);
}

// --------------------------------------------------------------------------
// ServeEngine: interactive ahead of bulk under a saturated pool.
// --------------------------------------------------------------------------

TEST(ServeEngineTest, InteractiveCompletesBeforeBulkOnSaturatedPool) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_GE(queries.size(), 4u);

  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kLpBcc;
    // Interleaved arrival: odd indices interactive, even bulk.
    requests[i].lane = (i % 2 == 1) ? Lane::kInteractive : Lane::kBulk;
  }

  BatchRunner runner(1);  // saturated: one worker serializes the claims
  ServeOptions opts;
  opts.aging_period = 0;  // strict priority for this test
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  BatchResult result = engine.Serve(requests);

  ASSERT_EQ(result.sojourn_seconds.size(), requests.size());
  double max_interactive = 0, min_bulk = 1e300;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].lane == Lane::kInteractive) {
      max_interactive = std::max(max_interactive, result.sojourn_seconds[i]);
    } else {
      min_bulk = std::min(min_bulk, result.sojourn_seconds[i]);
    }
  }
  // Completion timestamps are monotone in claim order, so with strict
  // priority every interactive query finishes before any bulk one starts.
  EXPECT_LE(max_interactive, min_bulk);

  ASSERT_EQ(result.lanes.size(), 2u);
  EXPECT_EQ(result.lanes[0].lane, Lane::kInteractive);
  EXPECT_EQ(result.lanes[1].lane, Lane::kBulk);
  EXPECT_EQ(result.lanes[0].queries + result.lanes[1].queries, requests.size());
  EXPECT_LE(result.lanes[0].latency.p99_seconds, result.lanes[1].latency.p99_seconds);

  // The planner dispatched onto the real algorithm: answers match the
  // sequential reference.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Community c = LpBcc(pg.graph, queries[i], {});
    EXPECT_EQ(result.communities[i].vertices, c.vertices) << i;
  }
}

TEST(ServeEngineTest, AgingPreventsBulkStarvation) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_EQ(queries.size(), 8u);

  // 7 interactive + 1 bulk at the back; aging_period = 1 claims the bulk
  // query in the second slot even though interactive queries remain.
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kLpBcc;
    requests[i].lane = i + 1 == queries.size() ? Lane::kBulk : Lane::kInteractive;
  }

  BatchRunner runner(1);
  ServeOptions opts;
  opts.aging_period = 1;
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  BatchResult result = engine.Serve(requests);

  // The bulk query completed ahead of the interactive tail: its sojourn is
  // below the interactive maximum (it ran second of eight).
  const double bulk_sojourn = result.sojourn_seconds.back();
  double max_interactive = 0;
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    max_interactive = std::max(max_interactive, result.sojourn_seconds[i]);
  }
  EXPECT_LT(bulk_sojourn, max_interactive);
}

// --------------------------------------------------------------------------
// Deadlines: expiry flags timed_out and never yields an invalid community.
// --------------------------------------------------------------------------

TEST(ServeEngineTest, ExpiredDeadlineReturnsValidOrEmptyForEveryMethod) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 4);
  ASSERT_FALSE(queries.empty());
  BcIndex index(pg.graph);

  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph, &index);

  for (QueryMethod m : {QueryMethod::kOnlineBcc, QueryMethod::kLpBcc, QueryMethod::kL2pBcc}) {
    std::vector<QueryRequest> requests(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests[i].query = queries[i];
      requests[i].method = m;
      requests[i].deadline_seconds = 1e-9;  // expired by the first round check
    }
    BatchResult result = engine.Serve(requests);
    EXPECT_EQ(result.timed_out, queries.size()) << Name(m);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(result.stats[i].timed_out) << Name(m) << " " << i;
      if (!result.communities[i].Empty()) {
        EXPECT_EQ(VerifyResolved(pg.graph, result.communities[i], queries[i], {}),
                  BccViolation::kNone)
            << Name(m) << " " << i;
      }
    }
  }
}

TEST(ServeEngineTest, MidSearchDeadlinesNeverYieldInvalidCommunities) {
  PlantedGraph pg = MakeGraph(6, 19);
  std::vector<BccQuery> queries = SampleQueries(pg, 6);
  ASSERT_FALSE(queries.empty());

  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph);
  // Sweep deadlines from "instantly expired" to "comfortably enough";
  // whatever mix of timed-out and completed queries results, every
  // non-empty answer must be a valid BCC.
  for (double deadline : {1e-9, 1e-7, 1e-6, 5e-6, 2e-5, 1e-3}) {
    std::vector<QueryRequest> requests(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests[i].query = queries[i];
      requests[i].method = QueryMethod::kOnlineBcc;
      requests[i].deadline_seconds = deadline;
    }
    BatchResult result = engine.Serve(requests);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (result.communities[i].Empty()) continue;
      EXPECT_EQ(VerifyResolved(pg.graph, result.communities[i], queries[i], {}),
                BccViolation::kNone)
          << "deadline " << deadline << " query " << i;
    }
  }
}

TEST(ServeEngineTest, GenerousDeadlineMatchesNoDeadline) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 4);
  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph);

  std::vector<QueryRequest> plain(queries.size()), bounded(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    plain[i].query = queries[i];
    plain[i].method = QueryMethod::kLpBcc;
    bounded[i] = plain[i];
    bounded[i].deadline_seconds = 60.0;
  }
  BatchResult a = engine.Serve(plain);
  BatchResult b = engine.Serve(bounded);
  EXPECT_EQ(b.timed_out, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(a.communities[i].vertices, b.communities[i].vertices) << i;
    EXPECT_FALSE(b.stats[i].timed_out) << i;
  }
}

TEST(ServeEngineTest, MbccDeadlineExpiryIsFlaggedAndValid) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.seed = 5;
  PlantedGraph pg = GeneratePlanted(cfg);
  std::vector<MbccGroundTruthQuery> gt = SampleMbccGroundTruthQueries(pg, 3, 4, 3);
  ASSERT_FALSE(gt.empty());

  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph);
  std::vector<QueryRequest> requests(gt.size());
  for (std::size_t i = 0; i < gt.size(); ++i) {
    requests[i].query = gt[i].query;
    requests[i].method = QueryMethod::kMbcc;
    requests[i].deadline_seconds = 1e-9;
  }
  BatchResult result = engine.Serve(requests);
  EXPECT_EQ(result.timed_out, gt.size());
  for (std::size_t i = 0; i < gt.size(); ++i) {
    EXPECT_TRUE(result.stats[i].timed_out) << i;
    EXPECT_TRUE(result.communities[i].Empty()) << i;
  }
}

// --------------------------------------------------------------------------
// Approximate fast path: determinism across thread counts, never
// approximate-only answers.
// --------------------------------------------------------------------------

ApproxOptions ForcedApprox(std::size_t samples = 64) {
  ApproxOptions a;
  a.enabled = true;
  a.samples = samples;
  a.threshold = 1;  // every round of every query takes the sampled check
  a.seed = 42;
  return a;
}

TEST(ServeEngineTest, ApproxBatchesAreBitIdenticalAcrossThreadCounts) {
  PlantedGraph pg = MakeGraph(6, 23);
  std::vector<BccQuery> queries = SampleQueries(pg, 10);
  ASSERT_FALSE(queries.empty());

  ServeOptions opts;
  opts.online.approx = ForcedApprox();
  opts.lp.approx = ForcedApprox();

  auto serve = [&](std::size_t threads, QueryMethod m) {
    BatchRunner runner(threads);
    ServeEngine engine(runner, pg.graph, nullptr, opts);
    std::vector<QueryRequest> requests(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests[i].query = queries[i];
      requests[i].method = m;
      requests[i].lane = i % 2 == 0 ? Lane::kInteractive : Lane::kBulk;
    }
    return engine.Serve(requests);
  };

  for (QueryMethod m : {QueryMethod::kOnlineBcc, QueryMethod::kLpBcc}) {
    BatchResult one = serve(1, m);
    BatchResult eight = serve(8, m);
    std::size_t approx_checks = 0;
    for (const SearchStats& s : one.stats) approx_checks += s.approx_checks;
    EXPECT_GT(approx_checks, 0u) << Name(m) << ": approx path never taken";
    ASSERT_EQ(one.communities.size(), eight.communities.size());
    for (std::size_t i = 0; i < one.communities.size(); ++i) {
      EXPECT_EQ(one.communities[i].vertices, eight.communities[i].vertices)
          << Name(m) << " query " << i;
    }
  }
}

TEST(ServeEngineTest, ApproxAnswersAreExactlyVerified) {
  PlantedGraph pg = MakeGraph(6, 29);
  std::vector<BccQuery> queries = SampleQueries(pg, 10);
  ASSERT_FALSE(queries.empty());

  // Deliberately terrible estimates (one sample): the exact final re-check
  // must still keep every returned community a valid BCC.
  ServeOptions opts;
  opts.online.approx = ForcedApprox(1);
  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kOnlineBcc;
  }
  BatchResult result = engine.Serve(requests);
  std::size_t non_empty = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (result.communities[i].Empty()) continue;
    ++non_empty;
    EXPECT_EQ(VerifyResolved(pg.graph, result.communities[i], queries[i], {}),
              BccViolation::kNone)
        << i;
  }
  EXPECT_GT(non_empty, 0u);
}

TEST(ServeEngineTest, ApproxMbccDeterministicAndVerified) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.seed = 11;
  PlantedGraph pg = GeneratePlanted(cfg);
  std::vector<MbccGroundTruthQuery> gt = SampleMbccGroundTruthQueries(pg, 3, 6, 9);
  ASSERT_FALSE(gt.empty());

  ServeOptions opts;
  // Online-style options recount every round, so the sampled check fires on
  // every round above the (tiny) threshold.
  opts.mbcc = OnlineBccOptions();
  opts.mbcc.approx = ForcedApprox();

  auto serve = [&](std::size_t threads) {
    BatchRunner runner(threads);
    ServeEngine engine(runner, pg.graph, nullptr, opts);
    std::vector<QueryRequest> requests(gt.size());
    for (std::size_t i = 0; i < gt.size(); ++i) {
      requests[i].query = gt[i].query;
      requests[i].method = QueryMethod::kMbcc;
    }
    return engine.Serve(requests);
  };
  BatchResult one = serve(1);
  BatchResult four = serve(4);
  std::size_t approx_checks = 0;
  for (const SearchStats& s : one.stats) approx_checks += s.approx_checks;
  EXPECT_GT(approx_checks, 0u);
  for (std::size_t i = 0; i < gt.size(); ++i) {
    EXPECT_EQ(one.communities[i].vertices, four.communities[i].vertices) << i;
    if (one.communities[i].Empty()) continue;
    MbccParams p;
    std::vector<std::uint32_t> ks = ResolveMbccCores(pg.graph, gt[i].query, p);
    EXPECT_EQ(VerifyMbcc(pg.graph, one.communities[i], gt[i].query.vertices, ks, p.b),
              MbccViolation::kNone)
        << i;
  }
}

TEST(ServeEngineTest, ApproxDisabledMatchesExactPath) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 6);
  BatchRunner runner(2);
  ServeEngine plain(runner, pg.graph);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kOnlineBcc;
  }
  BatchResult result = plain.Serve(requests);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SearchStats stats;
    Community c = OnlineBcc(pg.graph, queries[i], {}, &stats);
    EXPECT_EQ(result.communities[i].vertices, c.vertices) << i;
    EXPECT_EQ(result.stats[i].approx_checks, 0u) << i;
  }
}

// --------------------------------------------------------------------------
// Planning edge cases and shims.
// --------------------------------------------------------------------------

TEST(ServeEngineTest, VariantMethodMismatchYieldsEmptyAnswer) {
  PlantedGraph pg = MakeGraph();
  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph);
  std::vector<QueryRequest> requests(2);
  requests[0].query = MbccQuery{{0, 1}};  // mBCC payload on a two-label method
  requests[0].method = QueryMethod::kLpBcc;
  requests[1].query = BccQuery{0, 1};  // two-label payload on the mBCC method
  requests[1].method = QueryMethod::kMbcc;
  BatchResult result = engine.Serve(requests);
  EXPECT_TRUE(result.communities[0].Empty());
  EXPECT_TRUE(result.communities[1].Empty());
}

TEST(ServeEngineTest, L2pWithoutIndexDegradesToLp) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 4);
  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph, nullptr);  // no index
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kL2pBcc;
  }
  BatchResult result = engine.Serve(requests);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Community c = LpBcc(pg.graph, queries[i], {});
    EXPECT_EQ(result.communities[i].vertices, c.vertices) << i;
  }
}

TEST(ServeEngineTest, ShimsRouteThroughTheEngine) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 5);
  BcIndex index(pg.graph);
  BatchRunner runner(2);

  BatchResult shim = runner.RunL2pBatch(pg.graph, index, queries, {}, {});
  ServeEngine engine(runner, pg.graph, &index);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kL2pBcc;
  }
  BatchResult direct = engine.Serve(requests);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(shim.communities[i].vertices, direct.communities[i].vertices) << i;
  }
}

// --------------------------------------------------------------------------
// Identity gate: the engine pins its epoch's label-coreness table into every
// query, so unrestricted Find-G0 reads k and k-core membership from it. Its
// answers and rounds must equal a direct library call with nothing pinned
// (the scoped peels) for every method, before and after update batches.
// --------------------------------------------------------------------------

PlantedGraph MakeThreeLabelGraph() {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.intra_edge_prob = 0.5;
  cfg.seed = 23;
  return GeneratePlanted(cfg);
}

// Every method, with automatic k, a small explicit k, and an explicit k one
// above the first query vertex's label coreness (an empty G0), against `g`.
std::vector<QueryRequest> GateRequests(const LabeledGraph& g, const std::vector<BccQuery>& pairs,
                                       const std::vector<MbccQuery>& groups) {
  const std::vector<std::uint32_t> core = LabelCoreness(g);
  std::vector<QueryRequest> out;
  for (const BccQuery& q : pairs) {
    const std::vector<BccParams> variants = {{0, 0, 1}, {2, 2, 1}, {core[q.ql] + 1, 0, 1}};
    for (QueryMethod m : {QueryMethod::kOnlineBcc, QueryMethod::kLpBcc, QueryMethod::kL2pBcc}) {
      for (const BccParams& p : variants) {
        QueryRequest r;
        r.query = q;
        r.method = m;
        r.params = p;
        out.push_back(r);
      }
    }
  }
  for (const MbccQuery& q : groups) {
    MbccParams above;
    above.k = {core[q.vertices[0]] + 1};
    MbccParams explicit_k;
    explicit_k.k = std::vector<std::uint32_t>(q.vertices.size(), 2);
    for (const MbccParams& p : {MbccParams{}, explicit_k, above}) {
      QueryRequest r;
      r.query = q;
      r.method = QueryMethod::kMbcc;
      r.mbcc_params = p;
      out.push_back(r);
    }
  }
  return out;
}

// The same request as a direct library call: no engine, no workspace, so
// nothing is pinned and Find-G0 peels. L2P runs on a freshly built index.
Community DirectCall(const QueryRequest& r, const LabeledGraph& g, const BcIndex* fresh_index,
                     const ServeOptions& o, SearchStats* st) {
  if (r.method == QueryMethod::kMbcc) {
    return MbccSearch(g, std::get<MbccQuery>(r.query), r.mbcc_params, o.mbcc, st);
  }
  const BccQuery& q = std::get<BccQuery>(r.query);
  switch (r.method) {
    case QueryMethod::kOnlineBcc:
      return BccSearch(g, q, r.params, o.online, st);
    case QueryMethod::kL2pBcc:
      if (fresh_index != nullptr) return L2pBcc(g, *fresh_index, q, r.params, o.l2p, st);
      return BccSearch(g, q, r.params, o.lp, st);
    default:
      return BccSearch(g, q, r.params, o.lp, st);
  }
}

// Intra-label edges at `u`: present ones (to delete) or absent ones (to
// insert), up to `count`, in vertex order.
std::vector<Edge> IntraEdgesAt(const LabeledGraph& g, VertexId u, bool present,
                               std::size_t count) {
  std::vector<Edge> out;
  for (VertexId v : g.VerticesWithLabel(g.LabelOf(u))) {
    if (out.size() == count) break;
    if (v == u || g.HasEdge(u, v) != present) continue;
    out.push_back({std::min(u, v), std::max(u, v)});
  }
  return out;
}

UpdateRequest Batch(const std::vector<Edge>& inserts, const std::vector<Edge>& deletes,
                    std::size_t label_cap) {
  UpdateRequest req;
  for (const Edge& e : inserts) req.updates.push_back({EdgeUpdateKind::kInsert, e});
  for (const Edge& e : deletes) req.updates.push_back({EdgeUpdateKind::kDelete, e});
  req.repair.label_incremental_cap = label_cap;
  return req;
}

TEST(ServeEngineTest, EpochCorenessTableMatchesDirectCallsAcrossUpdates) {
  const PlantedGraph pg = MakeThreeLabelGraph();
  std::vector<BccQuery> pairs = SampleQueries(pg, 4);
  std::vector<MbccQuery> groups;
  for (const auto& gt : SampleMbccGroundTruthQueries(pg, 3, 3, 5)) groups.push_back(gt.query);
  ASSERT_GE(pairs.size(), 2u);
  ASSERT_FALSE(groups.empty());

  // Engine A serves with an index (its table is the index's) and LP-mBCC;
  // engine B without one (its own table) and Online mBCC.
  ServeOptions with_index;
  ServeOptions without_index;
  without_index.mbcc = OnlineBccOptions();
  BatchRunner runner(2);
  auto graph = std::make_shared<const LabeledGraph>(pg.graph);
  ServeEngine a(runner, graph, std::make_shared<const BcIndex>(*graph), with_index);
  ServeEngine b(runner, graph, nullptr, without_index);

  // Each batch touches one label: intra-label edges at one vertex, picked
  // against the current graph.
  struct Step {
    const char* name;
    VertexId at;
    std::size_t inserts, deletes, label_cap;
    bool rebuilt;  // the touched label takes the scoped rebuild
  };
  const std::vector<Step> steps = {
      {"under cap: 3 deletes", pairs[0].ql, 0, 3, 8, false},
      {"over cap: 4 inserts, cap 2", pairs[1].qr, 4, 0, 2, true},
      {"mixed insert+delete", groups[0].vertices.back(), 2, 2, 8, true},
  };

  std::size_t non_empty = 0, empty_above_core = 0;
  auto check_epoch = [&](const std::string& when) {
    for (ServeEngine* e : {&a, &b}) {
      const LabeledGraph& g = e->graph();
      const std::unique_ptr<const BcIndex> fresh =
          e->index() != nullptr ? std::make_unique<const BcIndex>(g) : nullptr;
      const std::vector<QueryRequest> requests = GateRequests(g, pairs, groups);
      const BatchResult served = e->Serve(requests);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        SearchStats st;
        const Community want = DirectCall(requests[i], g, fresh.get(), e->options(), &st);
        SCOPED_TRACE(when + (e == &a ? " engine A" : " engine B") + " request " +
                     std::to_string(i) + " method " + Name(requests[i].method));
        EXPECT_EQ(served.communities[i].vertices, want.vertices);
        EXPECT_EQ(served.stats[i].rounds, st.rounds);
        EXPECT_EQ(served.stats[i].g0_size, st.g0_size);
        non_empty += want.Empty() ? 0 : 1;
        // The third variant of each query asks for k above its coreness.
        if (i % 3 == 2) {
          EXPECT_TRUE(served.communities[i].Empty());
          EXPECT_EQ(served.stats[i].g0_size, 0u);
          ++empty_above_core;
        }
      }
    }
  };

  check_epoch("before updates:");
  for (const Step& step : steps) {
    const LabeledGraph& g = a.graph();
    const UpdateRequest batch = Batch(IntraEdgesAt(g, step.at, false, step.inserts),
                                      IntraEdgesAt(g, step.at, true, step.deletes),
                                      step.label_cap);
    ASSERT_EQ(batch.updates.size(), step.inserts + step.deletes) << step.name;
    for (ServeEngine* e : {&a, &b}) {
      const BatchResult r = e->Serve(std::vector<ServeItem>{batch});
      ASSERT_EQ(r.updates.size(), 1u);
      const UpdateOutcome& out = r.updates[0];
      ASSERT_TRUE(out.applied) << step.name << ": " << out.error;
      // Both engines repair coreness through the same table repair.
      EXPECT_EQ(out.repair.labels_touched, 1u) << step.name;
      EXPECT_EQ(out.repair.labels_rebuilt, step.rebuilt ? 1u : 0u) << step.name;
      EXPECT_EQ(out.repair.labels_incremental, step.rebuilt ? 0u : 1u) << step.name;
    }
    ASSERT_EQ(a.epoch(), b.epoch());
    check_epoch(std::string("after ") + step.name + ":");
  }
  EXPECT_GT(non_empty, 0u);
  EXPECT_GT(empty_above_core, 0u);
}

TEST(SummarizeLatencyTest, ZeroWallClockFallsBackToSummedSeconds) {
  std::vector<double> seconds = {0.01, 0.01, 0.02};
  BatchLatency lat = SummarizeLatency(seconds, 0.0);
  // qps falls back to count / sum(seconds) instead of silently reporting 0.
  EXPECT_NEAR(lat.qps, 3.0 / 0.04, 1e-9);
  EXPECT_NEAR(lat.avg_seconds, 0.04 / 3.0, 1e-12);
}

}  // namespace
}  // namespace bccs
