// bccs_query: run a butterfly-core community search on a graph file.
//
//   bccs_query --graph g.txt --ql 3 --qr 17 [--k1 0] [--k2 0] [--b 1]
//              [--method online|lp|l2p] [--verify]
//   bccs_query --graph g.txt --queries 3,17,42 --b 1      (multi-label mBCC)
//
// The query enters through the unified ServeEngine (eval/serve_engine.h)
// as one request on one worker. The engine flags (--method, --k1, --k2,
// --b, --deadline-ms, --approx-samples, --approx-threshold, --cache-bytes)
// are shared with bccs_serve and documented in tools/engine_flags.h.
//
// Index snapshots (see tools/bccs_build and graph/snapshot.h):
//   bccs_query --index-file g.snap ...
//     serves straight from the snapshot (mmap cold start; --graph not
//     needed); the snapshot's changelog (tools/bccs_update) is replayed on
//     load. With both --graph and --index-file, the snapshot is loaded
//     when valid AND its effective source stamp matches the graph
//     file's current size/mtime; otherwise (corrupt, stale, absent) the
//     index is rebuilt from the graph and saved to the snapshot path
//     (BcIndex::BuildOrLoad).
//
// Dynamic graphs:
//   bccs_query ... --updates-file u.txt
//     applies an edge-update batch ("+ u v" / "- u v" lines, see
//     graph/graph_delta.h) through the serving engine's update path before
//     any query runs: the batch is validated, the graph rebuilt, the index
//     incrementally repaired (BcIndex::ApplyUpdates), and every query below
//     observes the post-update epoch.
//
// Batches, repeats and thread counts are bccs_serve's job: pipe
// "q <ql> <qr>" lines into `bccs_serve --graph g.txt --threads N` (the
// summary line reports qps).
//
// k = 0 means auto (query coreness). Prints the community and search stats.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bcc/find_g0.h"
#include "bcc/verify.h"
#include "eval/serve_engine.h"
#include "eval/timer.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "tools/engine_flags.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bccs_query (--graph FILE | --index-file FILE | both)\n"
               "                  (--ql ID --qr ID | --queries ID,ID[,ID...])\n"
               "                  [--updates-file FILE] [--verify]\n%s",
               bccs::kEngineFlagsUsage);
}

}  // namespace

int main(int argc, char** argv) {
  bccs::ArgParser args = bccs::ArgParser::Parse(argc, argv);
  auto unknown = args.UnknownFlags(bccs::WithEngineFlags(
      {"graph", "index-file", "ql", "qr", "queries", "verify", "updates-file", "help"}));
  if (!unknown.empty() || args.Has("help")) {
    for (const auto& u : unknown) std::fprintf(stderr, "unknown flag: --%s\n", u.c_str());
    PrintUsage();
    return args.Has("help") ? 0 : 2;
  }

  // Validate every flag and query id before any graph is loaded.
  bccs::EngineFlags flags;
  std::string flag_error;
  if (!bccs::ParseEngineFlags(args, &flags, &flag_error)) {
    std::fprintf(stderr, "%s\n", flag_error.c_str());
    PrintUsage();
    return 2;
  }
  auto graph_path = args.GetString("graph");
  auto index_path = args.GetString("index-file");
  if (!graph_path && !index_path) {
    PrintUsage();
    return 2;
  }
  const bool mbcc = args.Has("queries");
  std::vector<bccs::VertexId> queries;
  if (mbcc) {
    if (!bccs::ParseVertexIdList(args.GetStringOr("queries", ""), &queries, &flag_error)) {
      std::fprintf(stderr, "--queries: %s\n", flag_error.c_str());
      return 2;
    }
    if (queries.size() < 2) {
      std::fprintf(stderr, "--queries needs at least two ids\n");
      return 2;
    }
  } else {
    auto ql = args.GetString("ql");
    auto qr = args.GetString("qr");
    if (!ql || !qr) {
      PrintUsage();
      return 2;
    }
    queries.resize(2);
    if (!bccs::ParseVertexId(*ql, &queries[0]) || !bccs::ParseVertexId(*qr, &queries[1])) {
      std::fprintf(stderr, "--ql and --qr must be vertex ids (integers in [0, %u]), got "
                   "'%s' and '%s'\n",
                   bccs::kInvalidVertex - 1, ql->c_str(), qr->c_str());
      return 2;
    }
  }

  // Resolve the graph (and, when snapshots are involved, the index) exactly
  // once, before the query runs.
  std::shared_ptr<const bccs::LabeledGraph> graph;
  bccs::SnapshotBundle bundle;
  if (index_path) {
    // Warm path first: a valid snapshot serves on its own, so the text
    // graph (potentially huge) is parsed only when the load fails and a
    // rebuild fallback is actually needed. When --graph is also given, its
    // stat() identity is checked against the snapshot's stamp, so a stale
    // snapshot is rejected (and rebuilt below) instead of silently winning.
    bccs::Timer load_timer;
    std::string load_error;
    bccs::SnapshotLoadOptions load_opts;
    bccs::SourceGraphInfo source;
    if (graph_path) {
      source = bccs::StatSourceGraph(*graph_path);
      load_opts.expected_source = source;
    }
    if (auto loaded = bccs::LoadSnapshot(*index_path, &load_error, load_opts)) {
      bundle = std::move(*loaded);
    } else if (!graph_path) {
      std::fprintf(stderr, "cannot load snapshot %s: %s\n", index_path->c_str(),
                   load_error.c_str());
      return 1;
    } else {
      std::string io_error;
      auto text_graph = bccs::ReadLabeledGraphFromFile(*graph_path, &io_error);
      if (!text_graph) {
        std::fprintf(stderr, "snapshot %s failed (%s) and cannot read graph %s: %s\n",
                     index_path->c_str(), load_error.c_str(), graph_path->c_str(),
                     io_error.c_str());
        return 1;
      }
      if (flags.method == bccs::QueryMethod::kL2pBcc) {
        // The load above already failed; build and save without re-reading
        // the snapshot file.
        std::fprintf(stderr, "note: snapshot %s: %s; rebuilding\n", index_path->c_str(),
                     load_error.c_str());
        bundle = bccs::BuildSnapshotBundle(*text_graph, *index_path, &io_error, source);
        if (!io_error.empty()) {
          std::fprintf(stderr, "note: snapshot %s: %s\n", index_path->c_str(),
                       io_error.c_str());
        }
      } else {
        // lp/online/mBCC never touch the index: don't pay the all-pairs
        // butterfly build + snapshot write for them.
        std::fprintf(stderr, "note: snapshot %s: %s; serving from the text graph\n",
                     index_path->c_str(), load_error.c_str());
        bundle.graph = std::make_shared<const bccs::LabeledGraph>(std::move(*text_graph));
      }
    }
    graph = bundle.graph;
    if (bundle.index != nullptr) {
      std::printf("index: %s %s in %.6fs (%zu bytes, %zu cached pairs, "
                  "%zu replayed updates)\n",
                  bundle.loaded_from_snapshot ? "loaded from" : "built and saved to",
                  index_path->c_str(), load_timer.Seconds(), bundle.snapshot_bytes,
                  bundle.index->CachedPairCount(), bundle.replayed_updates);
    }
  } else {
    std::string io_error;
    auto text_graph = bccs::ReadLabeledGraphFromFile(*graph_path, &io_error);
    if (!text_graph) {
      std::fprintf(stderr, "cannot read graph from %s: %s\n", graph_path->c_str(),
                   io_error.c_str());
      return 1;
    }
    graph = std::make_shared<const bccs::LabeledGraph>(std::move(*text_graph));
  }
  std::printf("graph: %zu vertices, %zu edges, %zu labels\n", graph->NumVertices(),
              graph->NumEdges(), graph->NumLabels());

  // --updates-file: one UpdateRequest through the serving engine's update
  // path before the query runs, so the query observes the post-update epoch.
  std::shared_ptr<const bccs::BcIndex> updated_index;
  if (auto updates_path = args.GetString("updates-file")) {
    std::string up_error;
    auto updates = bccs::ReadEdgeUpdatesFromFile(*updates_path, &up_error);
    if (!updates) {
      std::fprintf(stderr, "cannot read updates from %s: %s\n", updates_path->c_str(),
                   up_error.c_str());
      return 1;
    }
    const std::size_t raw_count = updates->size();
    bccs::BatchRunner update_runner(1);
    bccs::ServeEngine update_engine(update_runner, *graph, bundle.index.get());
    bccs::UpdateRequest update_request;
    update_request.updates = std::move(*updates);
    std::vector<bccs::ServeItem> items;
    items.emplace_back(std::move(update_request));
    const bccs::BatchResult update_result = update_engine.Serve(items);
    const bccs::UpdateOutcome& outcome = update_result.updates[0];
    if (!outcome.applied) {
      std::fprintf(stderr, "cannot apply %s: %s\n", updates_path->c_str(),
                   outcome.error.c_str());
      return 1;
    }
    graph = update_engine.graph_ptr();
    if (bundle.index != nullptr) updated_index = update_engine.index_ptr();
    std::printf("updates: %zu applied (%zu inserts, %zu deletes net) in %.4fs; "
                "now %zu edges, serving epoch %llu\n",
                raw_count, outcome.inserts, outcome.deletes, outcome.seconds,
                graph->NumEdges(), static_cast<unsigned long long>(outcome.epoch));
  }

  for (bccs::VertexId v : queries) {
    if (v >= graph->NumVertices()) {
      std::fprintf(stderr, "query ids out of range (graph has %zu vertices)\n",
                   graph->NumVertices());
      return 2;
    }
  }
  // Build the l2p index now if the snapshot machinery (or the update replay)
  // did not already provide one.
  std::unique_ptr<bccs::BcIndex> local_index;
  const bccs::BcIndex* index =
      updated_index != nullptr ? updated_index.get() : bundle.index.get();
  if (flags.method == bccs::QueryMethod::kL2pBcc && index == nullptr) {
    local_index = std::make_unique<bccs::BcIndex>(*graph);
    index = local_index.get();
  }

  bccs::QueryRequest request = flags.Prototype();
  if (mbcc) {
    request.query = bccs::MbccQuery{queries};
    request.method = bccs::QueryMethod::kMbcc;
    request.mbcc_params.b = flags.params.b;
  } else {
    request.query = bccs::BccQuery{queries[0], queries[1]};
  }
  bccs::ServeOptions so;
  flags.ApplyTo(&so);
  bccs::BatchRunner runner(1);
  bccs::ServeEngine engine(runner, *graph, index, so);
  const std::vector<bccs::QueryRequest> requests{std::move(request)};
  const bccs::BatchResult result = engine.Serve(requests);

  const bccs::Community& community = result.communities[0];
  const bccs::SearchStats& stats = result.stats[0];
  if (stats.timed_out) {
    std::printf("deadline expired: returning best valid partial answer\n");
  }
  if (community.Empty()) {
    std::printf("no community found\n");
    return 1;
  }
  std::printf("community (%zu members):", community.Size());
  for (bccs::VertexId v : community.vertices) std::printf(" %u", v);
  std::printf("\nrounds=%zu butterfly_counting_calls=%zu approx_checks=%zu time=%.6fs\n",
              stats.rounds, stats.butterfly_counting_calls, stats.approx_checks,
              stats.total_seconds);
  bccs::PrintPhases(result.stats);

  if (args.Has("verify") && queries.size() == 2) {
    const bccs::BccQuery q{queries[0], queries[1]};
    bccs::BccParams p = flags.params;
    // Resolve auto parameters the way the search did.
    bccs::SearchStats tmp;
    bccs::G0Result g0 = bccs::FindG0(*graph, q, p, &tmp);
    p.k1 = g0.k1;
    p.k2 = g0.k2;
    std::printf("verification: %s\n", bccs::ToString(bccs::VerifyBcc(*graph, community, q, p)));
  }
  return 0;
}
