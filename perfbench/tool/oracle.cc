// `perfbench_tool oracle`: recomputes every answer a run served, untimed,
// in-process, and compares it with what the client received.
//
// The state at epoch E is rebuilt from the text graph alone — a fresh
// BcIndex, then the first E-1 applied updates through BuildGraphDelta ->
// ApplyGraphDelta -> BcIndex::ApplyUpdates — so no state the engine under
// test built is trusted. Socket runs serve queries only (epoch 1); the
// traced run's cache probe also serves updates.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bcc/bc_index.h"
#include "bcc/local_search.h"
#include "bcc/online_search.h"
#include "bcc/verify.h"
#include "bcc/workspace.h"
#include "core/core_decomposition.h"
#include "graph/graph_io.h"
#include "net/line_protocol.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct Answer {
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  bool valid = true;
};

}  // namespace

OracleResult RunOracle(const std::string& graph_path, const std::string& method,
                       const std::vector<bccs::EdgeUpdate>& updates,
                       const std::vector<OracleItem>& items, int threads) {
  OracleResult result;
  std::string error;
  auto loaded = bccs::ReadLabeledGraphFromFile(graph_path, &error);
  if (!loaded) {
    result.mismatches = items.size();
    result.first_problem = "cannot read " + graph_path + ": " + error;
    return result;
  }
  const bool l2p = method == "l2p";
  auto graph = std::make_shared<const bccs::LabeledGraph>(std::move(*loaded));
  std::unique_ptr<bccs::BcIndex> index;
  if (l2p) index = std::make_unique<bccs::BcIndex>(*graph);

  std::map<std::uint64_t, std::vector<const OracleItem*>> by_epoch;
  for (const OracleItem& item : items) by_epoch[item.epoch].push_back(&item);

  auto note = [&](const std::string& problem) {
    if (result.first_problem.empty()) result.first_problem = problem;
  };
  std::uint64_t epoch = 1;
  std::size_t applied = 0;
  for (auto& [item_epoch, list] : by_epoch) {
    // Advance the state to item_epoch.
    while (epoch < item_epoch && applied < updates.size()) {
      const std::vector<bccs::EdgeUpdate> batch{updates[applied++]};
      auto delta = bccs::BuildGraphDelta(*graph, batch, &error);
      if (!delta) {
        note("oracle cannot apply update " + std::to_string(applied) + ": " + error);
        applied = updates.size();
        break;
      }
      auto next = std::make_shared<const bccs::LabeledGraph>(
          bccs::ApplyGraphDelta(*graph, *delta));
      if (index) index = index->ApplyUpdates(*next, *delta);
      graph = std::move(next);
      ++epoch;
    }
    if (epoch != item_epoch) {
      result.checked += list.size();
      result.mismatches += list.size();
      note("answer at epoch " + std::to_string(item_epoch) + " beyond the " +
           std::to_string(updates.size()) + " acknowledged updates");
      continue;
    }
    // Distinct queries of this epoch, recomputed on `threads` workers.
    std::map<std::pair<bccs::VertexId, bccs::VertexId>, Answer> answers;
    for (const OracleItem* item : list) answers[{item->query.ql, item->query.qr}];
    std::vector<std::pair<bccs::BccQuery, Answer*>> work;
    for (auto& [key, answer] : answers) {
      work.push_back({{key.first, key.second}, &answer});
    }
    // VerifyBcc needs the automatic k resolved. LP resolves it as the query
    // vertex's coreness within its label group (computed here once per
    // graph when the epoch has many queries, else per query on the query's
    // label group). L2P resolves it inside its local candidate, where it
    // may be smaller, so an L2P answer is checked against k = 1, as the
    // repository's own L2P validity tests do.
    std::vector<std::uint32_t> coreness;
    if (!l2p && work.size() >= 256) coreness = bccs::LabelCoreness(*graph);
    const bccs::LabeledGraph& g = *graph;
    std::atomic<std::size_t> next_item{0};
    auto worker = [&] {
      bccs::QueryWorkspace ws;
      for (std::size_t i; (i = next_item.fetch_add(1)) < work.size();) {
        const bccs::BccQuery& q = work[i].first;
        Answer& a = *work[i].second;
        if (q.ql >= g.NumVertices() || q.qr >= g.NumVertices()) {
          a.valid = false;
          continue;
        }
        const bccs::Community c =
            l2p ? bccs::L2pBcc(g, *index, q, DefaultParams(), {}, nullptr, &ws)
                : bccs::LpBcc(g, q, DefaultParams(), nullptr, &ws);
        a.size = c.Size();
        a.hash = bccs::CommunityHash(c);
        if (c.Empty()) continue;
        auto core_of = [&](bccs::VertexId v) {
          if (!coreness.empty()) return coreness[v];
          return bccs::SubsetCoreness(g, g.VerticesWithLabel(g.LabelOf(v)))[v];
        };
        bccs::BccParams p = DefaultParams();
        p.k1 = l2p ? 1 : core_of(q.ql);
        p.k2 = l2p ? 1 : core_of(q.qr);
        a.valid = bccs::VerifyBcc(g, c, q, p) == bccs::BccViolation::kNone;
      }
    };
    const int n_threads = work.size() >= 16 ? std::max(1, threads) : 1;
    std::vector<std::thread> pool;
    for (int t = 1; t < n_threads; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();

    for (const OracleItem* item : list) {
      const Answer& a = answers[{item->query.ql, item->query.qr}];
      ++result.checked;
      if (!a.valid) {
        ++result.invalid;
        ++result.mismatches;
        note("VerifyBcc rejects the recomputed answer to q " +
             std::to_string(item->query.ql) + " " + std::to_string(item->query.qr));
      } else if (a.size != item->size || a.hash != item->hash) {
        ++result.mismatches;
        note("q " + std::to_string(item->query.ql) + " " +
             std::to_string(item->query.qr) + " at epoch " + std::to_string(item->epoch) +
             ": served n=" + std::to_string(item->size) +
             ", oracle n=" + std::to_string(a.size));
      }
    }
  }
  return result;
}

int OracleMain(const bccs::ArgParser& args) {
  std::vector<Request> requests;
  std::vector<LogRecord> log;
  std::string error;
  if (!ReadRequests(args.GetStringOr("requests", ""), &requests, &error) ||
      !ReadLog(args.GetStringOr("log", ""), &log, &error)) {
    std::fprintf(stderr, "oracle: %s\n", error.c_str());
    return 2;
  }
  // The socket workloads serve queries only, so every answer is at epoch 1.
  std::vector<OracleItem> items;
  for (const LogRecord& r : log) {
    if (r.index >= requests.size() || requests[r.index].is_update()) {
      std::fprintf(stderr, "oracle: log names a request that is not a query\n");
      return 2;
    }
    if (r.status != "ok") continue;
    items.push_back({requests[r.index].query(), r.epoch, r.size, r.hash});
  }
  const OracleResult res = RunOracle(args.GetStringOr("graph", ""), "lp", {}, items,
                                     static_cast<int>(args.GetIntOr("threads", 2)));
  std::string problem = res.first_problem;
  for (char& ch : problem) {
    if (ch == '"' || ch == '\\') ch = '\'';
  }
  std::printf("{\"checked\": %zu, \"mismatches\": %zu, \"invalid\": %zu, "
              "\"first_problem\": \"%s\"}\n",
              res.checked, res.mismatches, res.invalid, problem.c_str());
  return 0;
}

}  // namespace perfbench
