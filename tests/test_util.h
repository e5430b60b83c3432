#ifndef BCCS_TESTS_TEST_UTIL_H_
#define BCCS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "bcc/query_distance.h"
#include "graph/labeled_graph.h"

namespace bccs::testing {

/// Complete graph K_n, single label.
inline LabeledGraph MakeClique(std::size_t n, Label label = 0) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, label));
}

/// Path 0-1-...-(n-1), single label.
inline LabeledGraph MakePath(std::size_t n, Label label = 0) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i + 1 < n; ++i) edges.push_back({i, static_cast<VertexId>(i + 1)});
  return LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, label));
}

/// Cycle on n vertices, single label.
inline LabeledGraph MakeCycle(std::size_t n, Label label = 0) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) {
    edges.push_back({i, static_cast<VertexId>((i + 1) % n)});
  }
  return LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, label));
}

/// Random G(n, p) with labels round-robin over `num_labels`.
inline LabeledGraph MakeRandomGraph(std::size_t n, double p, std::size_t num_labels,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(p);
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      if (coin(rng)) edges.push_back({i, j});
    }
  }
  std::vector<Label> labels(n);
  for (VertexId v = 0; v < n; ++v) labels[v] = static_cast<Label>(v % num_labels);
  return LabeledGraph::FromEdges(n, std::move(edges), std::move(labels));
}

/// Membership mask over graph vertices.
inline std::vector<char> MaskOf(const LabeledGraph& g, const std::vector<VertexId>& members) {
  std::vector<char> mask(g.NumVertices(), 0);
  for (VertexId v : members) mask[v] = 1;
  return mask;
}

/// All vertex ids of the graph.
inline std::vector<VertexId> AllVertices(const LabeledGraph& g) {
  std::vector<VertexId> all(g.NumVertices());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// Reference coreness: repeatedly removes a minimum-degree vertex.
inline std::vector<std::uint32_t> NaiveCoreness(const LabeledGraph& g,
                                                const std::vector<VertexId>& members) {
  std::vector<char> in_set = MaskOf(g, members);
  std::vector<std::uint32_t> core(g.NumVertices(), 0);
  std::vector<VertexId> remaining = members;
  std::uint32_t k = 0;
  while (!remaining.empty()) {
    auto degree = [&](VertexId v) {
      std::uint32_t d = 0;
      for (VertexId w : g.Neighbors(v)) d += in_set[w];
      return d;
    };
    auto it = std::min_element(remaining.begin(), remaining.end(),
                               [&](VertexId a, VertexId b) { return degree(a) < degree(b); });
    VertexId v = *it;
    k = std::max(k, degree(v));
    core[v] = k;
    in_set[v] = 0;
    remaining.erase(it);
  }
  return core;
}

/// Reference per-vertex butterfly degree by brute-force 2x2 enumeration over
/// explicit vertex lists.
inline std::vector<std::uint64_t> NaiveButterflies(const LabeledGraph& g,
                                                   const std::vector<VertexId>& left,
                                                   const std::vector<VertexId>& right) {
  std::vector<std::uint64_t> chi(g.NumVertices(), 0);
  auto has_cross = [&](VertexId a, VertexId b) { return g.HasEdge(a, b); };
  for (std::size_t i = 0; i < left.size(); ++i) {
    for (std::size_t j = i + 1; j < left.size(); ++j) {
      for (std::size_t x = 0; x < right.size(); ++x) {
        for (std::size_t y = x + 1; y < right.size(); ++y) {
          if (has_cross(left[i], right[x]) && has_cross(left[i], right[y]) &&
              has_cross(left[j], right[x]) && has_cross(left[j], right[y])) {
            ++chi[left[i]];
            ++chi[left[j]];
            ++chi[right[x]];
            ++chi[right[y]];
          }
        }
      }
    }
  }
  return chi;
}

/// Deletes `batch` from `alive`, repairs `dm` (distances to `source`) with
/// UpdateDistancesAfterDeletion and checks the repair's whole contract: the
/// map equals a fresh BFS of the surviving graph, `changed` is exactly the
/// alive vertices whose distance moved, each once, and the repair did no
/// O(n) work. Call under ASSERT_NO_FATAL_FAILURE.
inline void DeleteAndCheckRepair(const LabeledGraph& g, VertexId source,
                                 const std::vector<VertexId>& batch, std::vector<char>* alive,
                                 DistanceMap* dm) {
  const std::size_t n = g.NumVertices();
  std::vector<std::uint32_t> before(n);
  for (VertexId v = 0; v < n; ++v) before[v] = dm->Get(v);
  for (VertexId v : batch) (*alive)[v] = 0;
  const std::uint64_t inits = dm->bulk_inits();
  std::vector<VertexId> changed;
  UpdateDistancesAfterDeletion(g, *alive, batch, dm, &changed);
  ASSERT_EQ(dm->bulk_inits(), inits) << "the repair grew or refilled the map";

  std::vector<std::uint32_t> fresh;
  BfsDistances(g, *alive, source, &fresh);
  std::vector<VertexId> moved;
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(dm->Get(v), fresh[v]) << "vertex " << v;
    if ((*alive)[v] && before[v] != fresh[v]) moved.push_back(v);
  }
  std::sort(changed.begin(), changed.end());
  ASSERT_EQ(std::adjacent_find(changed.begin(), changed.end()), changed.end())
      << "changed lists a vertex twice";
  ASSERT_EQ(changed, moved);
}

/// The acceptance check: the repaired index must be bit-identical to a
/// freshly built index of the updated graph — coreness, per-label maxima,
/// and every cached pair entry (chi, total, max, argmax on both sides).
inline void ExpectIndexMatchesFreshBuild(const BcIndex& repaired,
                                         const LabeledGraph& updated, const char* note) {
  BcIndex fresh(updated);
  for (VertexId v = 0; v < updated.NumVertices(); ++v) {
    ASSERT_EQ(repaired.Coreness(v), fresh.Coreness(v)) << note << " coreness of " << v;
  }
  for (Label l = 0; l < updated.NumLabels(); ++l) {
    EXPECT_EQ(repaired.MaxCoreness(l), fresh.MaxCoreness(l)) << note << " label " << l;
  }
  repaired.ForEachCachedPair([&](Label a, Label b, const ButterflyCounts& counts) {
    const auto want_pin = fresh.PairButterflies(a, b);
    const ButterflyCounts& want = *want_pin;
    EXPECT_EQ(counts.total, want.total) << note << " pair " << a << "," << b;
    EXPECT_EQ(counts.max_left, want.max_left) << note << " pair " << a << "," << b;
    EXPECT_EQ(counts.max_right, want.max_right) << note << " pair " << a << "," << b;
    EXPECT_EQ(counts.argmax_left, want.argmax_left) << note << " pair " << a << "," << b;
    EXPECT_EQ(counts.argmax_right, want.argmax_right) << note << " pair " << a << "," << b;
    ASSERT_EQ(counts.chi.size(), want.chi.size()) << note;
    for (VertexId v = 0; v < counts.chi.size(); ++v) {
      ASSERT_EQ(counts.chi[v], want.chi[v])
          << note << " chi of " << v << " in pair " << a << "," << b;
    }
  });
}

}  // namespace bccs::testing

#endif  // BCCS_TESTS_TEST_UTIL_H_
