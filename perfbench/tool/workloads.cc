// `perfbench_tool gen`: the seeded inputs of one workload.
//
// Writes, into --dir:
//   graph.txt     the labeled graph (graph_io text format)
//   requests.txt  one wire line per request, in send order
//   probe.txt     a few valid delete-then-reinsert updates on graph.txt, for
//                 the traced run's update-path probe on workloads whose
//                 stream carries no updates
//
// Everything comes from --seed through perfbench::Rng and the repository's
// own seeded generators. Every run checks that: the inputs are generated
// twice more in memory, and the same seed must give byte-identical files,
// the next seed different ones. lp-skewed additionally checks its hubs
// (largest degree at least 20x the mean) and that both labels occur.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "graph/graph_io.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using bccs::BccQuery;
using bccs::Edge;
using bccs::LabeledGraph;
using bccs::VertexId;

// Distinct queries, more than a run can serve.
constexpr std::size_t kQueryCount = 6000;
// lp-skewed graph shape.
constexpr std::size_t kSkewedVertices = 20000;
constexpr std::size_t kSkewedEdges = 100000;
constexpr double kSkewedGamma = 2.5;
constexpr double kSkewedMaxOverMean = 40;
// Delete-then-reinsert pairs in probe.txt.
constexpr std::size_t kProbeEdges = 8;

/// Chung-Lu random graph with a power-law expected-degree sequence
/// w_i ~ (i + i0)^(-1/(gamma-1)). The offset i0 is chosen so the largest
/// expected degree is `max_over_mean` times the mean, which keeps every
/// edge probability below 1 while leaving hubs whose wedge counts dominate
/// butterfly counting. Edges are drawn endpoint-by-endpoint in proportion
/// to the weights until `num_edges` distinct non-loop edges exist. Labels
/// are uniform over `num_labels`.
LabeledGraph ChungLu(std::size_t n, std::size_t num_edges, double gamma,
                     double max_over_mean, std::size_t num_labels, std::uint64_t seed) {
  const double exponent = -1.0 / (gamma - 1.0);
  auto ratio_for = [&](double i0) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += std::pow(static_cast<double>(i) + i0, exponent);
    }
    return std::pow(i0, exponent) / (sum / static_cast<double>(n));
  };
  double lo = 1, hi = static_cast<double>(n);  // ratio falls as i0 grows
  for (int it = 0; it < 60; ++it) {
    const double mid = std::sqrt(lo * hi);
    (ratio_for(mid) > max_over_mean ? lo : hi) = mid;
  }
  std::vector<double> cumulative(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i) + hi, exponent);
    cumulative[i] = total;
  }
  Rng rng(seed);
  auto draw = [&] {
    const double x = rng.Uniform() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
    return static_cast<VertexId>(std::min<std::size_t>(it - cumulative.begin(), n - 1));
  };
  std::set<std::pair<VertexId, VertexId>> edges;
  for (std::size_t attempts = 0; edges.size() < num_edges && attempts < 20 * num_edges;
       ++attempts) {
    const VertexId a = draw(), b = draw();
    if (a != b) edges.insert({std::min(a, b), std::max(a, b)});
  }
  std::vector<Edge> list;
  list.reserve(edges.size());
  for (const auto& [a, b] : edges) list.push_back({a, b});
  std::vector<bccs::Label> labels(n);
  for (auto& l : labels) l = static_cast<bccs::Label>(rng.Below(num_labels));
  return LabeledGraph::FromEdges(n, std::move(list), std::move(labels));
}

/// Distinct query pairs in a seeded order: the paper's protocol (degree
/// rank 0.8, inter-distance 1) through SampleQueries, plus planted-community
/// pairs through SampleGroundTruthQueries when the graph has ground truth.
std::vector<BccQuery> QueryPool(const LabeledGraph& g, const bccs::PlantedGraph* pg,
                                std::size_t count, std::uint64_t seed) {
  bccs::QueryGenConfig cfg;
  cfg.degree_rank = 0.8;
  cfg.inter_distance = 1;
  cfg.seed = seed;
  cfg.max_attempts = 200000;
  std::vector<BccQuery> sampled = bccs::SampleQueries(g, count, cfg);
  if (pg != nullptr) {
    cfg.seed = seed ^ 0x5eed;
    for (const auto& gt : bccs::SampleGroundTruthQueries(*pg, count, cfg)) {
      sampled.push_back(gt.query);
    }
  }
  std::vector<BccQuery> pool;
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const BccQuery& q : sampled) {
    if (seen.insert({q.ql, q.qr}).second) pool.push_back(q);
  }
  Rng rng(seed ^ 0x9001);
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Below(i)]);
  }
  if (pool.size() > count) pool.resize(count);
  return pool;
}

/// Edges for delete-then-reinsert update pairs, alternating intra-label and
/// cross-label edges.
std::vector<Edge> UpdateEdges(const LabeledGraph& g, std::size_t count, Rng& rng) {
  std::vector<Edge> intra, cross;
  for (const Edge& e : g.AllEdges()) {
    (g.IsCrossEdge(e.u, e.v) ? cross : intra).push_back(e);
  }
  std::vector<Edge> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<Edge>& from = (i % 2 == 0 || intra.empty()) ? cross : intra;
    if (from.empty()) break;
    out.push_back(from[rng.Below(from.size())]);
  }
  return out;
}

std::string QueryLine(const BccQuery& q, std::uint64_t id) {
  return "q " + std::to_string(q.ql) + " " + std::to_string(q.qr) +
         " id=" + std::to_string(id);
}

std::string UpdateLine(char sign, const Edge& e, std::uint64_t id) {
  return std::string("u ") + sign + " " + std::to_string(e.u) + " " +
         std::to_string(e.v) + " id=" + std::to_string(id);
}

struct Generated {
  LabeledGraph graph;
  std::vector<std::string> requests;  // query lines
  std::vector<std::string> probe;     // update lines
  std::string check_error;            // a failed generator self-check, if any
};

/// Builds one workload's inputs entirely in memory (so the self-check can
/// compare two generations byte for byte).
bool Generate(const std::string& name, std::uint64_t seed, Generated* out,
              std::string* error) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 17);
  std::vector<BccQuery> queries;
  if (name == "lp-planted") {
    bccs::DatasetSpec spec = *bccs::FindSpec("dblp");
    spec.config.seed = seed;
    const bccs::PlantedGraph pg = bccs::MakeDataset(spec);
    out->graph = pg.graph;
    queries = QueryPool(pg.graph, &pg, kQueryCount, seed);
  } else if (name == "lp-skewed") {
    out->graph =
        ChungLu(kSkewedVertices, kSkewedEdges, kSkewedGamma, kSkewedMaxOverMean, 2, seed);
    const LabeledGraph& g = out->graph;
    std::size_t max_degree = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      max_degree = std::max(max_degree, g.Degree(v));
    }
    const double mean_degree = 2.0 * double(g.NumEdges()) / double(g.NumVertices());
    if (double(max_degree) < 20 * mean_degree) {
      out->check_error = "skewed graph: max degree " + std::to_string(max_degree) +
                         " below 20x mean degree " + std::to_string(mean_degree);
    } else if (g.NumLabels() != 2 || g.VerticesWithLabel(0).empty() ||
               g.VerticesWithLabel(1).empty()) {
      out->check_error = "skewed graph: both labels must be present";
    }
    queries = QueryPool(g, nullptr, kQueryCount, seed);
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  if (queries.empty()) {
    *error = "workload produced no requests";
    return false;
  }
  std::uint64_t next_id = 1;
  for (const BccQuery& q : queries) out->requests.push_back(QueryLine(q, next_id++));
  // Probe updates take ids past the stream's, so a probe never collides
  // with a streamed request in the server's idempotency keeper.
  for (const Edge& e : UpdateEdges(out->graph, kProbeEdges, rng)) {
    out->probe.push_back(UpdateLine('-', e, next_id++));
    out->probe.push_back(UpdateLine('+', e, next_id++));
  }
  return true;
}

std::string Serialize(const Generated& g) {
  std::ostringstream os;
  bccs::WriteLabeledGraph(g.graph, os);
  for (const auto* list : {&g.requests, &g.probe}) {
    os << "--\n";
    for (const std::string& line : *list) os << line << '\n';
  }
  return os.str();
}

bool WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
  return static_cast<bool>(out);
}

}  // namespace

int GenMain(const bccs::ArgParser& args) {
  const std::string dir = args.GetStringOr("dir", "");
  const std::string name = args.GetStringOr("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.GetIntOr("seed", 1));
  std::string error;
  Generated gen;
  if (dir.empty() || !Generate(name, seed, &gen, &error)) {
    std::fprintf(stderr, "gen: %s\n", dir.empty() ? "--dir is required" : error.c_str());
    return 2;
  }
  if (!gen.check_error.empty()) {
    std::fprintf(stderr, "gen: self-check failed: %s\n", gen.check_error.c_str());
    return 1;
  }
  {
    // Same seed -> byte-identical inputs; another seed -> different ones.
    Generated again, other;
    if (!Generate(name, seed, &again, &error) ||
        !Generate(name, seed + 1, &other, &error)) {
      std::fprintf(stderr, "gen: self-check: %s\n", error.c_str());
      return 1;
    }
    const std::string bytes = Serialize(gen);
    if (bytes != Serialize(again) || bytes == Serialize(other)) {
      std::fprintf(stderr,
                   "gen: self-check failed: seed does not determine the inputs\n");
      return 1;
    }
  }
  if (!bccs::WriteLabeledGraphToFile(gen.graph, dir + "/graph.txt") ||
      !WriteLines(dir + "/requests.txt", gen.requests) ||
      !WriteLines(dir + "/probe.txt", gen.probe)) {
    std::fprintf(stderr, "gen: cannot write into %s\n", dir.c_str());
    return 1;
  }
  std::printf("{\"vertices\": %zu, \"edges\": %zu, \"labels\": %zu, \"requests\": %zu}\n",
              gen.graph.NumVertices(), gen.graph.NumEdges(), gen.graph.NumLabels(),
              gen.requests.size());
  return 0;
}

}  // namespace perfbench
