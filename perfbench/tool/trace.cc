// `perfbench_tool trace`: the traced in-process run of one workload.
//
// Replays a prefix of the workload's request stream three ways and prints
// the per-layer metrics as one JSON object:
//
//  1. Set-up calls, timed (median of three): ReadLabeledGraphFromFile on
//     graph.txt, and OpenSnapshotWithChangelog on a snapshot of a BcIndex
//     built here.
//  2. An in-process ServeEngine stream configured like the server (text
//     graph, no index, no caches), one request at a time, as the socket
//     run's single connection sends them. Its ItemCompletions give the
//     engine metrics and the in-process latency of each request, which
//     run.py subtracts from the socket latency of the same request. Its
//     answers go through the oracle.
//  3. A single-threaded replay with a span around every call into a layer's
//     public functions: codec (ParseNetRequest, LineSplitter,
//     Format*Response), LpBcc, and for updates BuildGraphDelta,
//     ApplyGraphDelta, BcIndex::ApplyUpdates and Changelog::Append. Calls
//     that nest others are split by re-executing the inner calls on the same
//     inputs right after: LpBcc into FindG0 and PeelToBcc, FindG0 into the
//     k-core (KCoreOfSubset + ComponentContaining) and CountButterflies over
//     G0's sides, PeelToBcc into BfsDistances from both query vertices over
//     G0. A layer's metric is its self time: span duration minus its
//     children's. Each query's request work also runs once untraced,
//     alternating which goes first, for trace.overhead_frac.
//
// The workloads' streams are LP queries only, so layers they do not reach
// are measured on the workload's own graph by probes, and every metric is a
// real measurement: probe.txt's delete-then-reinsert updates run after the
// queries (with an every-append changelog), L2pBcc over a fresh BcIndex on
// the first kL2pProbeQueries queries, and a cache probe (an indexed L2P
// engine with a result cache). Probe spans hang under their own "probe"
// roots and stay out of trace.unattributed_frac.
//
// SearchStats contributes counts only; its *_seconds timers overlap
// (find_g0_seconds contains butterfly_seconds) and are never read.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "bcc/bc_index.h"
#include "bcc/find_g0.h"
#include "bcc/local_search.h"
#include "bcc/online_search.h"
#include "bcc/query_distance.h"
#include "bcc/workspace.h"
#include "butterfly/butterfly_counting.h"
#include "core/core_decomposition.h"
#include "eval/serve_engine.h"
#include "graph/changelog.h"
#include "graph/graph_delta.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "net/line_protocol.h"
#include "perfbench.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kL2pProbeQueries = 20;

/// Spans kept in memory and written out once, at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    std::size_t request;
    std::int64_t start, end;
  };

  int Begin(const char* name, int parent, std::size_t request) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<std::size_t>(span)].end = NowNs(); }

  /// Runs fn inside a span and returns the span id.
  template <typename Fn>
  int Time(const char* name, int parent, std::size_t request, Fn&& fn) {
    const int s = Begin(name, parent, request);
    fn();
    End(s);
    return s;
  }

  std::int64_t Duration(int s) const {
    const Span& sp = spans_[static_cast<std::size_t>(s)];
    return sp.end - sp.start;
  }

  /// Duration minus the durations of the direct children.
  std::vector<std::int64_t> SelfTimes() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = Duration(static_cast<int>(i));
    }
    for (const Span& sp : spans_) {
      if (sp.parent >= 0) self[static_cast<std::size_t>(sp.parent)] -= sp.end - sp.start;
    }
    return self;
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tname\tparent\trequest\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      out << i << '\t' << sp.name << '\t' << sp.parent << '\t' << sp.request << '\t'
          << sp.start << '\t' << sp.end << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Span names that are not a layer: roots and the LpBcc wrapper whose self
/// time is exactly what its re-executed stages fail to explain.
bool IsLayer(const char* name) {
  const std::string n = name;
  return n != "request" && n != "probe" && n != "bcc.lp_search";
}

struct Metrics {
  std::vector<std::pair<std::string, double>> values;
  void Set(const std::string& name, double v) { values.push_back({name, v}); }
};

double Median3(const std::function<double()>& fn) {
  std::vector<double> v{fn(), fn(), fn()};
  return Quantile(v, 0.5);
}

void RemoveChangelog(const std::string& snapshot_path) {
  const fs::path p(snapshot_path);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(p.filename().string() + ".", 0) == 0) fs::remove(entry.path(), ec);
  }
}

/// One completed item of an in-process engine stream.
struct EngineItem {
  bool done = false;
  bool is_update = false;
  bool applied = false;
  double latency = 0;  // seconds: submit -> completion
  double exec = 0;
  double wait = 0;
  std::uint64_t epoch = 0;
  std::uint64_t size = 0, hash = 0;
};

/// The requests of one run: the replayed prefix of requests.txt (queries),
/// then the probe updates.
struct Inputs {
  std::string dir;
  std::string graph_path;
  std::vector<Request> seq;
  std::size_t stream_size = 0;  // seq[0, stream_size) is the workload's own stream
  std::shared_ptr<const bccs::LabeledGraph> graph;  // read from graph.txt
};

bccs::ServeItem MakeItem(const Request& r, bccs::QueryMethod method) {
  if (r.is_update()) return bccs::UpdateRequest{{r.parsed.update}, {}};
  bccs::QueryRequest q;
  q.query = r.query();
  q.method = method;
  q.params = DefaultParams();
  q.request_id = r.parsed.id;
  return q;
}

/// Drives `reqs` through an in-process stream one at a time, in order,
/// each submitted when the previous one has completed (the socket run's
/// closed loop over one connection).
std::vector<EngineItem> RunEngine(bccs::ServeEngine& engine,
                                  const std::vector<Request>& reqs,
                                  bccs::QueryMethod method) {
  std::vector<EngineItem> out(reqs.size());
  std::mutex mu;
  std::condition_variable cv;
  bccs::ServeEngine::Stream stream = engine.OpenStream();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::int64_t submitted = NowNs();
    stream.Submit(MakeItem(reqs[i], method), [&, i, submitted](
                                                 const bccs::ItemCompletion& c) {
      EngineItem item;
      item.done = true;
      item.is_update = c.is_update;
      item.latency = static_cast<double>(NowNs() - submitted) / 1e9;
      item.exec = c.seconds;
      item.wait = c.sojourn_seconds - c.seconds;
      item.epoch = c.epoch;
      if (c.community != nullptr) {
        item.size = c.community->Size();
        item.hash = bccs::CommunityHash(*c.community);
      }
      if (c.outcome != nullptr) item.applied = c.outcome->applied;
      std::lock_guard<std::mutex> lock(mu);
      out[i] = item;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return out[i].done; });
  }
  stream.Finish();
  return out;
}

/// A stream's completions, split for the metrics and the oracle.
struct Collected {
  std::vector<double> latency_ms, exec_ms, wait_ms, prepare_ms;
  std::vector<std::size_t> query_index;  // request index of each latency_ms entry
  std::vector<bccs::EdgeUpdate> applied;  // admission order
  std::vector<OracleItem> answers;
  std::size_t failed = 0;  // unfinished items and rejected updates
};

Collected Collect(const std::vector<EngineItem>& items,
                  const std::vector<Request>& reqs) {
  Collected c;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const EngineItem& it = items[i];
    if (!it.done || (it.is_update && !it.applied)) {
      ++c.failed;
    } else if (it.is_update) {
      c.prepare_ms.push_back(it.exec * 1e3);
      c.applied.push_back(reqs[i].parsed.update);
    } else {
      c.latency_ms.push_back(it.latency * 1e3);
      c.query_index.push_back(i);
      c.exec_ms.push_back(it.exec * 1e3);
      c.wait_ms.push_back(it.wait * 1e3);
      c.answers.push_back({reqs[i].query(), it.epoch, it.size, it.hash});
    }
  }
  return c;
}

/// Set-up calls, timed (median of three): the text parse, which fills
/// in->graph, and the recovery-grade open of a snapshot saved here.
bool TimeSetupCalls(Inputs* in, Metrics* m, std::string* error) {
  std::optional<bccs::LabeledGraph> text_graph;
  m->Set("graph.text_load_s", Median3([&] {
           const std::int64_t t0 = NowNs();
           text_graph = bccs::ReadLabeledGraphFromFile(in->graph_path, error);
           return static_cast<double>(NowNs() - t0) / 1e9;
         }));
  if (!text_graph) return false;
  in->graph = std::make_shared<const bccs::LabeledGraph>(std::move(*text_graph));
  const std::string snap = in->dir + "/trace.snap";
  if (!bccs::SaveSnapshot(bccs::BcIndex(*in->graph), snap, error)) return false;
  std::optional<bccs::RecoveredSnapshot> recovered;
  bool opened = true;
  m->Set("graph.snapshot_open_s", Median3([&] {
           recovered.reset();
           RemoveChangelog(snap);
           const std::int64_t t0 = NowNs();
           recovered = bccs::OpenSnapshotWithChangelog(snap, {}, {}, error);
           const std::int64_t t1 = NowNs();
           opened = opened && recovered.has_value();
           return static_cast<double>(t1 - t0) / 1e9;
         }));
  return opened;
}

/// The server's configuration in-process: the text graph, no index, no
/// caches, LpBcc.
Collected RunServerMirror(const Inputs& in, std::size_t threads) {
  bccs::BatchRunner runner(threads);
  bccs::ServeEngine engine(runner, in.graph, nullptr, bccs::ServeOptions{});
  return Collect(RunEngine(engine, in.seq, bccs::QueryMethod::kLpBcc), in.seq);
}

/// Cache probe for workloads served without caches: an indexed L2P stream
/// over the prefix's queries with a result cache of half of them. The first
/// half is sent twice in a row (hits), then the probe updates (which
/// invalidate every cached pair of a two-label graph), the first half once
/// more (stale drops), then the second half twice (evictions).
Collected RunCacheProbe(const Inputs& in, std::size_t threads, bccs::ResultCacheStats* rc,
                        bccs::BlockCacheStats* pc) {
  const std::size_t half = in.stream_size / 2;
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < half; ++k) order.insert(order.end(), 2, k);
  for (std::size_t i = in.stream_size; i < in.seq.size(); ++i) order.push_back(i);
  for (std::size_t k = 0; k < half; ++k) order.push_back(k);
  for (std::size_t k = half; k < in.stream_size; ++k) order.insert(order.end(), 2, k);
  std::vector<Request> reqs;
  for (std::size_t i : order) {
    reqs.push_back(in.seq[i]);
    reqs.back().parsed.id = reqs.size();
  }
  bccs::ServeOptions so;
  so.result_cache_entries = std::max<std::size_t>(1, half);
  bccs::BatchRunner runner(threads);
  auto index = std::make_shared<const bccs::BcIndex>(*in.graph);
  bccs::ServeEngine engine(runner, in.graph, index, so);
  const std::vector<EngineItem> items =
      RunEngine(engine, reqs, bccs::QueryMethod::kL2pBcc);
  *rc = engine.result_cache_stats();
  *pc = engine.pair_cache_stats();
  return Collect(items, reqs);
}

/// The traced single-threaded replay (see the file comment). Fills the
/// replay's metrics and returns false on a failed update.
bool Replay(const Inputs& in, Tracer* tr, Metrics* m) {
  const bccs::BccParams params = DefaultParams();
  std::string error;
  std::shared_ptr<const bccs::LabeledGraph> g = in.graph;
  std::unique_ptr<bccs::BcIndex> index = std::make_unique<bccs::BcIndex>(*g);
  const std::string replay_snap = in.dir + "/replay.snap";
  RemoveChangelog(replay_snap);
  bccs::SaveSnapshot(*index, replay_snap, &error);
  bccs::ChangelogOptions append_opts;
  append_opts.fsync = bccs::FsyncPolicy::kEveryAppend;
  std::unique_ptr<bccs::Changelog> log =
      bccs::Changelog::Open(replay_snap, 0, append_opts, nullptr, &error);
  if (!log) {
    std::fprintf(stderr, "trace: changelog: %s\n", error.c_str());
    return false;
  }
  bccs::QueryWorkspace ws;
  std::int64_t untraced_ns = 0;
  double wedges = 0, counting_calls = 0, delta_rounds = 0, delta_fallbacks = 0;
  double rounds = 0, g0_size = 0, answer_size = 0;
  double repair_touched = 0, repair_incremental = 0;
  std::size_t queries = 0, butterfly_runs = 0;
  std::vector<double> append_us;
  std::vector<char> in_left, in_right, alive;
  std::vector<std::uint32_t> dist;

  for (std::size_t i = 0; i < in.seq.size(); ++i) {
    const std::string& line = in.seq[i].line;
    bccs::NetRequest req;
    auto codec_parse = [&] {
      bccs::LineSplitter splitter(4096);
      std::string framed, perr;
      splitter.Feed(line + "\n");
      splitter.Next(&framed);
      bccs::ParseNetRequest(framed, g->NumVertices(), &req, &perr);
    };
    if (in.seq[i].is_update()) {
      // Probe: the engine's prepare path plus the durable append, in order.
      const std::vector<bccs::EdgeUpdate> batch{in.seq[i].parsed.update};
      const int root = tr->Begin("probe", -1, i);
      tr->Time("net.codec", root, i, codec_parse);
      std::optional<bccs::GraphDelta> delta;
      tr->Time("graph.delta_build", root, i,
               [&] { delta = bccs::BuildGraphDelta(*g, batch, &error); });
      if (!delta) {
        std::fprintf(stderr, "trace: update '%s' rejected: %s\n", line.c_str(),
                     error.c_str());
        return false;
      }
      std::shared_ptr<const bccs::LabeledGraph> next;
      tr->Time("graph.delta_apply", root, i, [&] {
        next =
            std::make_shared<const bccs::LabeledGraph>(bccs::ApplyGraphDelta(*g, *delta));
      });
      bccs::UpdateRepairStats rs;
      std::unique_ptr<bccs::BcIndex> next_index;
      tr->Time("bcc.index_repair", root, i,
               [&] { next_index = index->ApplyUpdates(*next, *delta, {}, &rs); });
      bool appended = false;
      const int append = tr->Time("graph.changelog_append", root, i, [&] {
        bccs::MutexLock commit(log->commit_mutex());
        appended = log->Append(batch, {}, &error);
      });
      append_us.push_back(static_cast<double>(tr->Duration(append)) / 1e3);
      bccs::UpdateOutcome outcome;
      outcome.applied = appended;
      tr->Time("net.codec", root, i,
               [&] { bccs::FormatUpdateResponse(req.id, outcome); });
      tr->End(root);
      if (!appended) {
        std::fprintf(stderr, "trace: changelog append failed: %s\n", error.c_str());
        return false;
      }
      repair_touched += static_cast<double>(rs.labels_touched + rs.pairs_touched);
      repair_incremental +=
          static_cast<double>(rs.labels_incremental + rs.pairs_incremental);
      index = std::move(next_index);
      g = std::move(next);
      continue;
    }

    ++queries;
    const bccs::BccQuery q = in.seq[i].query();
    bccs::Community answer;
    bccs::SearchStats stats;
    auto search = [&](bccs::SearchStats* st) {
      return bccs::LpBcc(*g, q, params, st, &ws);
    };
    auto untraced = [&] {
      const std::int64_t t0 = NowNs();
      codec_parse();
      bccs::SearchStats st;
      bccs::FormatQueryResponse(req.id, 1, search(&st));
      untraced_ns += NowNs() - t0;
    };
    int search_span = -1;
    auto traced = [&] {
      const int root = tr->Begin("request", -1, i);
      tr->Time("net.codec", root, i, codec_parse);
      search_span =
          tr->Time("bcc.lp_search", root, i, [&] { answer = search(&stats); });
      tr->Time("net.codec", root, i,
               [&] { bccs::FormatQueryResponse(req.id, 1, answer); });
      tr->End(root);
    };
    if (i % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    rounds += static_cast<double>(stats.rounds);
    counting_calls += static_cast<double>(stats.butterfly_counting_calls);
    delta_rounds += static_cast<double>(stats.delta_rounds);
    delta_fallbacks += static_cast<double>(stats.delta_fallbacks);
    g0_size += static_cast<double>(stats.g0_size);
    answer_size += static_cast<double>(answer.Size());

    // Split LpBcc into its stages (children of the search span).
    bccs::SearchStats st;
    bccs::G0Result g0;
    const int g0_span = tr->Time("bcc.find_g0", search_span, i,
                                 [&] { g0 = bccs::FindG0(*g, q, params, &st, &ws); });
    if (g0.k1 > 0 && g0.k2 > 0) {
      tr->Time("core.kcore", g0_span, i, [&] {
        const auto group = [&](bccs::VertexId v) {
          return g->VerticesWithLabel(g->LabelOf(v));
        };
        bccs::ComponentContaining(*g, bccs::KCoreOfSubset(*g, group(q.ql), g0.k1), q.ql);
        bccs::ComponentContaining(*g, bccs::KCoreOfSubset(*g, group(q.qr), g0.k2), q.qr);
      });
    }
    if (!g0.left.empty() && !g0.right.empty()) {
      in_left.assign(g->NumVertices(), 0);
      in_right.assign(g->NumVertices(), 0);
      for (bccs::VertexId v : g0.left) in_left[v] = 1;
      for (bccs::VertexId v : g0.right) in_right[v] = 1;
      tr->Time("butterfly.count", g0_span, i, [&] {
        wedges += static_cast<double>(
            bccs::CountButterflies(*g, g0.left, g0.right, in_left, in_right).wedges);
      });
      ++butterfly_runs;
    }
    if (g0.found) {
      alive.assign(g->NumVertices(), 0);
      for (bccs::VertexId v : g0.left) alive[v] = 1;
      for (bccs::VertexId v : g0.right) alive[v] = 1;
      const int peel = tr->Time("bcc.peel", search_span, i, [&] {
        bccs::PeelToBcc(*g, g0, q, bccs::LpBccOptions(), params.b, &st, &ws);
      });
      tr->Time("bcc.query_distance", peel, i, [&] {
        bccs::BfsDistances(*g, alive, q.ql, &dist);
        bccs::BfsDistances(*g, alive, q.qr, &dist);
      });
    }
    bccs::ReleaseG0Counts(&ws, &g0);
    if (queries <= kL2pProbeQueries) {
      const int probe_root = tr->Begin("probe", -1, i);
      tr->Time("bcc.l2p", probe_root, i,
               [&] { bccs::L2pBcc(*g, *index, q, params, {}, &st, &ws); });
      tr->End(probe_root);
    }
  }

  // Per-layer self times; request roots carry the attribution accounting.
  const std::vector<Tracer::Span>& spans = tr->spans();
  const std::vector<std::int64_t> self = tr->SelfTimes();
  // Per span name: sum of self times in us, number of calls.
  std::map<std::string, std::pair<double, std::size_t>> per_name;
  std::int64_t root_total = 0, attributed = 0, traced_query_ns = 0;
  std::vector<std::size_t> root_of(spans.size());
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const Tracer::Span& sp = spans[s];
    root_of[s] = sp.parent < 0 ? s : root_of[static_cast<std::size_t>(sp.parent)];
    auto& [sum, calls] = per_name[sp.name];
    sum += static_cast<double>(self[s]) / 1e3;
    ++calls;
    if (std::string(spans[root_of[s]].name) != "request") continue;
    if (sp.parent >= 0) {
      if (IsLayer(sp.name)) attributed += self[s];
      continue;
    }
    root_total += sp.end - sp.start;
    if (!in.seq[sp.request].is_update()) traced_query_ns += sp.end - sp.start;
  }
  auto mean_us = [&](const std::string& name) {
    const auto it = per_name.find(name);
    return it == per_name.end()
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  };
  const double nq = static_cast<double>(std::max<std::size_t>(queries, 1));
  m->Set("graph.delta_build_us", mean_us("graph.delta_build"));
  m->Set("graph.delta_apply_us", mean_us("graph.delta_apply"));
  m->Set("graph.changelog_append_us_p50", Quantile(append_us, 0.5));
  m->Set("graph.changelog_append_us_p99", Quantile(append_us, 0.99));
  m->Set("core.kcore_us", mean_us("core.kcore"));
  m->Set("butterfly.count_us", mean_us("butterfly.count"));
  m->Set("butterfly.wedges",
         butterfly_runs > 0 ? wedges / static_cast<double>(butterfly_runs) : 0.0);
  m->Set("butterfly.counting_calls", counting_calls / nq);
  m->Set("butterfly.delta_rounds", delta_rounds / nq);
  m->Set("butterfly.delta_fallbacks", delta_fallbacks / nq);
  m->Set("bcc.find_g0_us", mean_us("bcc.find_g0"));
  m->Set("bcc.peel_us", mean_us("bcc.peel"));
  m->Set("bcc.query_distance_us", mean_us("bcc.query_distance"));
  m->Set("bcc.l2p_us", mean_us("bcc.l2p"));
  m->Set("bcc.rounds", rounds / nq);
  m->Set("bcc.g0_size", g0_size / nq);
  m->Set("bcc.answer_over_g0", g0_size > 0 ? answer_size / g0_size : 0.0);
  m->Set("bcc.index_repair_us", mean_us("bcc.index_repair"));
  m->Set("bcc.repair_incremental_frac",
         repair_touched > 0 ? repair_incremental / repair_touched : 0.0);
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  m->Set("net.codec_us",
         ratio(per_name["net.codec"].first, static_cast<double>(in.seq.size())));
  m->Set("trace.unattributed_frac",
         root_total > 0 ? 1.0 - ratio(static_cast<double>(attributed),
                                      static_cast<double>(root_total))
                        : 0.0);
  // Queries only: their request work ran both ways on the same state.
  m->Set("trace.overhead_frac",
         untraced_ns > 0 ? ratio(static_cast<double>(traced_query_ns),
                                 static_cast<double>(untraced_ns)) - 1.0
                         : 0.0);
  return true;
}

}  // namespace

int TraceMain(const bccs::ArgParser& args) {
  const auto threads = static_cast<std::size_t>(args.GetIntOr("threads", 2));
  Inputs in;
  in.dir = args.GetStringOr("dir", "");
  in.graph_path = in.dir + "/graph.txt";
  std::vector<Request> probe;
  std::string error;
  if (!ReadRequests(in.dir + "/requests.txt", &in.seq, &error) ||
      !ReadRequests(in.dir + "/probe.txt", &probe, &error)) {
    std::fprintf(stderr, "trace: %s\n", error.c_str());
    return 2;
  }
  in.seq.resize(
      std::min(in.seq.size(), static_cast<std::size_t>(args.GetIntOr("count", 100))));
  in.stream_size = in.seq.size();
  in.seq.insert(in.seq.end(), probe.begin(), probe.end());

  Metrics m;
  if (!TimeSetupCalls(&in, &m, &error)) {
    std::fprintf(stderr, "trace: set-up: %s\n", error.c_str());
    return 2;
  }

  const Collected engine = RunServerMirror(in, threads);
  OracleResult oracle = RunOracle(in.graph_path, "lp", engine.applied, engine.answers,
                                  static_cast<int>(threads));
  bccs::ResultCacheStats rc;
  bccs::BlockCacheStats pc;
  const Collected probe_run = RunCacheProbe(in, threads, &rc, &pc);
  const OracleResult probe_oracle =
      RunOracle(in.graph_path, "l2p", probe_run.applied, probe_run.answers,
                static_cast<int>(threads));
  const std::size_t failed = engine.failed + probe_run.failed;
  oracle.checked += probe_oracle.checked;
  oracle.mismatches += probe_oracle.mismatches;
  if (oracle.first_problem.empty()) oracle.first_problem = probe_oracle.first_problem;
  m.Set("engine.exec_ms_p50", Quantile(engine.exec_ms, 0.5));
  m.Set("engine.exec_ms_p99", Quantile(engine.exec_ms, 0.99));
  m.Set("engine.queue_wait_ms_p50", Quantile(engine.wait_ms, 0.5));
  m.Set("engine.queue_wait_ms_p99", Quantile(engine.wait_ms, 0.99));
  m.Set("engine.update_prepare_ms", Quantile(engine.prepare_ms, 0.5));
  const double lookups = static_cast<double>(rc.hits + rc.misses);
  m.Set("cache.hit_rate", lookups > 0 ? static_cast<double>(rc.hits) / lookups : 0);
  m.Set("cache.lookups", lookups);
  m.Set("cache.evictions", static_cast<double>(rc.evictions));
  m.Set("cache.stale_drops", static_cast<double>(rc.stale_drops));
  const double block_lookups = static_cast<double>(pc.hits + pc.misses);
  m.Set("block_cache.hit_rate",
        block_lookups > 0 ? static_cast<double>(pc.hits) / block_lookups : 0);

  // Per-query in-process latencies, for run.py to pair with the socket run.
  {
    std::ofstream out(args.GetStringOr("latencies", ""));
    for (std::size_t k = 0; k < engine.latency_ms.size(); ++k) {
      out << engine.query_index[k] << ' ' << engine.latency_ms[k] << '\n';
    }
    if (!out) {
      std::fprintf(stderr, "trace: cannot write --latencies\n");
      return 1;
    }
  }
  Tracer tr;
  if (!Replay(in, &tr, &m)) return 1;
  const std::string spans_out = args.GetStringOr("spans", "");
  if (!spans_out.empty() && !tr.Write(spans_out)) {
    std::fprintf(stderr, "trace: cannot write %s\n", spans_out.c_str());
  }
  if (!oracle.first_problem.empty()) {
    std::fprintf(stderr, "trace: oracle: %s\n", oracle.first_problem.c_str());
  }
  std::printf("{\"engine_failed\": %zu, \"oracle_checked\": %zu, "
              "\"oracle_mismatches\": %zu, \"requests\": %zu, \"metrics\": {",
              failed, oracle.checked, oracle.mismatches, in.seq.size());
  for (std::size_t k = 0; k < m.values.size(); ++k) {
    std::printf("%s\"%s\": %.9g", k ? ", " : "", m.values[k].first.c_str(),
                m.values[k].second);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace perfbench
