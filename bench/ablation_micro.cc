// Ablation micro-benchmarks (google-benchmark) for the Section 6 design
// choices: hashmap vs vertex-priority butterfly counting, incremental vs
// full BFS distance maintenance (and the distance repair kernel alone),
// Algorithm 7 vs full recount, and bulk vs single-vertex deletion.

#include <benchmark/benchmark.h>

#include "bcc/candidate.h"
#include "bcc/find_g0.h"
#include "bcc/local_search.h"
#include "bcc/online_search.h"
#include "bcc/query_distance.h"
#include "butterfly/approx_counting.h"
#include "butterfly/butterfly_counting.h"
#include "butterfly/butterfly_update.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "graph/generators.h"

namespace {

using namespace bccs;  // NOLINT: benchmark file scoped to this binary

struct BipartiteFixture {
  LabeledGraph g;
  std::vector<VertexId> left, right;
  std::vector<char> in_left, in_right;

  explicit BipartiteFixture(std::size_t n, double p) {
    g = GenerateRandomBipartite(n, n, p, 99);
    in_left.assign(g.NumVertices(), 0);
    in_right.assign(g.NumVertices(), 0);
    for (VertexId v = 0; v < n; ++v) {
      left.push_back(v);
      in_left[v] = 1;
    }
    for (VertexId v = static_cast<VertexId>(n); v < 2 * n; ++v) {
      right.push_back(v);
      in_right[v] = 1;
    }
  }
};

void BM_ButterflyCountingHashmap(benchmark::State& state) {
  BipartiteFixture f(static_cast<std::size_t>(state.range(0)), 0.05);
  for (auto _ : state) {
    auto counts = CountButterflies(f.g, f.left, f.right, f.in_left, f.in_right);
    benchmark::DoNotOptimize(counts.total);
  }
}
BENCHMARK(BM_ButterflyCountingHashmap)->Arg(200)->Arg(400)->Arg(800);

void BM_ButterflyCountingVertexPriority(benchmark::State& state) {
  BipartiteFixture f(static_cast<std::size_t>(state.range(0)), 0.05);
  for (auto _ : state) {
    auto total = CountTotalButterfliesVertexPriority(f.g, f.left, f.right, f.in_left,
                                                     f.in_right);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ButterflyCountingVertexPriority)->Arg(200)->Arg(400)->Arg(800);

void BM_LeaderUpdateAlgorithm7(benchmark::State& state) {
  BipartiteFixture f(static_cast<std::size_t>(state.range(0)), 0.05);
  LeaderButterflyUpdater updater(f.g);
  VertexId leader = f.left[0];
  for (auto _ : state) {
    std::uint64_t loss = 0;
    for (VertexId victim : f.right) {
      loss += updater.LossOnDeletion(f.in_left, f.in_right, leader, victim);
    }
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_LeaderUpdateAlgorithm7)->Arg(200)->Arg(400)->Arg(800);

struct PeelFixture {
  PlantedGraph pg;
  BccQuery q;

  PeelFixture() {
    PlantedConfig cfg;
    cfg.num_communities = 20;
    cfg.min_group_size = 14;
    cfg.max_group_size = 24;
    cfg.intra_edge_prob = 0.4;
    cfg.background_vertices = 500;
    cfg.seed = 42;
    pg = GeneratePlanted(cfg);
    q = {pg.communities[0].groups[0][0], pg.communities[0].groups[1][0]};
  }
};

void BM_SearchFullBfsDistances(benchmark::State& state) {
  PeelFixture f;
  SearchOptions opts;  // full BFS, full recount
  for (auto _ : state) {
    auto c = BccSearch(f.pg.graph, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_SearchFullBfsDistances);

void BM_SearchFastDistances(benchmark::State& state) {
  PeelFixture f;
  SearchOptions opts;
  opts.fast_query_distance = true;
  for (auto _ : state) {
    auto c = BccSearch(f.pg.graph, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_SearchFastDistances);

// An LP peel schedule recorded on the dblp stand-in (about 42k vertices,
// the graph of perfbench's lp-planted workload): each round removes the
// farthest query-distance layer plus the vertices the core cascade strips.
// Recording runs until the queries disconnect or die, so the schedule is at
// least as deep as LP's own peel of the same query.
struct RepairSchedule {
  PlantedGraph pg;
  BccQuery q;
  std::vector<char> g0_alive;
  std::vector<std::vector<VertexId>> rounds;

  RepairSchedule() {
    DatasetSpec spec = *FindSpec("dblp");
    spec.config.seed = 201;
    pg = MakeDataset(spec);
    for (const BccQuery& cand_q : SampleQueries(pg.graph, 16, QueryGenConfig{})) {
      Record(cand_q);
      if (rounds.size() >= 15) return;
    }
  }

  void Record(const BccQuery& query) {
    const LabeledGraph& g = pg.graph;
    q = query;
    rounds.clear();
    G0Result g0 = FindG0(g, q, BccParams{}, nullptr);
    if (!g0.found) return;
    GroupedCandidate cand(g, {g0.left, g0.right}, {g0.k1, g0.k2});
    g0_alive = cand.alive();
    std::vector<std::uint32_t> dl, dr;
    while (cand.IsAlive(q.ql) && cand.IsAlive(q.qr)) {
      BfsDistances(g, cand.alive(), q.ql, &dl);
      BfsDistances(g, cand.alive(), q.qr, &dr);
      if (dl[q.qr] == kInfDistance) return;
      auto qd = [&](VertexId v) { return std::max(dl[v], dr[v]); };
      std::uint32_t far = 0;
      std::vector<VertexId> layer;
      for (VertexId v : cand.AliveVertices()) {
        if (v == q.ql || v == q.qr || qd(v) < far) continue;
        if (qd(v) > far) layer.clear();
        far = qd(v);
        layer.push_back(v);
      }
      if (layer.empty()) return;
      rounds.push_back(cand.RemoveAndMaintain(layer, [](VertexId) {}));
    }
  }
};

// The distance repair alone: both query-distance maps replayed over the
// recorded schedule. The initial BFS is excluded from the timing.
void BM_DistanceRepair(benchmark::State& state) {
  RepairSchedule f;
  const LabeledGraph& g = f.pg.graph;
  DistanceMap dl, dr;
  std::vector<VertexId> changed;
  std::uint64_t changed_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<char> alive = f.g0_alive;
    BfsDistances(g, alive, f.q.ql, &dl);
    BfsDistances(g, alive, f.q.qr, &dr);
    state.ResumeTiming();
    for (const std::vector<VertexId>& removed : f.rounds) {
      for (VertexId v : removed) alive[v] = 0;
      UpdateDistancesAfterDeletion(g, alive, removed, &dl, &changed);
      changed_total += changed.size();
      UpdateDistancesAfterDeletion(g, alive, removed, &dr, &changed);
      changed_total += changed.size();
    }
  }
  state.counters["rounds"] = static_cast<double>(f.rounds.size());
  state.counters["changed_per_pass"] =
      static_cast<double>(changed_total) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_DistanceRepair)->Unit(benchmark::kMicrosecond);

void BM_SearchSingleDeletion(benchmark::State& state) {
  PeelFixture f;
  SearchOptions opts = LpBccOptions();
  opts.bulk_delete = false;
  for (auto _ : state) {
    auto c = BccSearch(f.pg.graph, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_SearchSingleDeletion);

void BM_SearchBulkDeletion(benchmark::State& state) {
  PeelFixture f;
  SearchOptions opts = LpBccOptions();
  for (auto _ : state) {
    auto c = BccSearch(f.pg.graph, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_SearchBulkDeletion);

void BM_ApproxButterflySampling(benchmark::State& state) {
  BipartiteFixture f(800, 0.05);
  ApproxButterflyOptions opts;
  opts.samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    double estimate =
        EstimateTotalButterflies(f.g, f.left, f.right, f.in_left, f.in_right, opts);
    benchmark::DoNotOptimize(estimate);
  }
}
BENCHMARK(BM_ApproxButterflySampling)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_L2pEtaSweep(benchmark::State& state) {
  PeelFixture f;
  BcIndex index(f.pg.graph);
  L2pOptions opts;
  opts.eta = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto c = L2pBcc(f.pg.graph, index, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_L2pEtaSweep)->Arg(128)->Arg(512)->Arg(2048)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
