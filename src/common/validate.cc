#include "common/validate.h"

#include <algorithm>
#include <utility>

#include "bcc/bc_index.h"
#include "butterfly/butterfly_counting.h"
#include "core/core_decomposition.h"
#include "graph/changelog.h"

namespace bccs {

namespace {

std::string VertexStr(VertexId v) { return std::to_string(v); }

}  // namespace

ValidationResult ValidateGraph(const LabeledGraph& g) {
  const std::size_t n = g.NumVertices();
  const auto offsets = ValidateAccess::Offsets(g);
  const auto adjacency = ValidateAccess::Adjacency(g);
  const auto labels = ValidateAccess::Labels(g);
  const auto label_offsets = ValidateAccess::LabelOffsets(g);
  const auto label_members = ValidateAccess::LabelMembers(g);

  if (labels.size() != n) {
    return ValidationResult::Fail("label array has " + std::to_string(labels.size()) +
                                  " entries, want one per vertex (" + std::to_string(n) +
                                  ")");
  }
  if (n == 0) {
    if (!adjacency.empty()) {
      return ValidationResult::Fail("empty graph carries adjacency entries");
    }
    return ValidationResult::Ok();
  }
  if (offsets.size() != n + 1) {
    return ValidationResult::Fail("offset array has " + std::to_string(offsets.size()) +
                                  " entries, want NumVertices+1 = " +
                                  std::to_string(n + 1));
  }
  if (offsets[0] != 0) {
    return ValidationResult::Fail("offset array does not start at 0");
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      return ValidationResult::Fail("adjacency offsets not monotone at vertex " +
                                    VertexStr(static_cast<VertexId>(v)));
    }
  }
  if (offsets[n] != adjacency.size()) {
    return ValidationResult::Fail(
        "offset array ends at " + std::to_string(offsets[n]) + " but adjacency has " +
        std::to_string(adjacency.size()) + " entries");
  }

  // Local well-formedness of every adjacency list first (range, self-loops,
  // ordering); only once all lists are known sorted is the binary-search
  // symmetry pass valid.
  std::size_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.Neighbors(v);
    max_degree = std::max(max_degree, nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (u >= n) {
        return ValidationResult::Fail("neighbor " + VertexStr(u) + " of vertex " +
                                      VertexStr(v) + " out of range");
      }
      if (u == v) {
        return ValidationResult::Fail("self-loop on vertex " + VertexStr(v));
      }
      if (i > 0 && nbrs[i - 1] >= u) {
        return ValidationResult::Fail("adjacency of vertex " + VertexStr(v) +
                                      " not strictly ascending");
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : g.Neighbors(v)) {
      const auto back = g.Neighbors(u);
      if (!std::binary_search(back.begin(), back.end(), v)) {
        return ValidationResult::Fail("edge (" + VertexStr(v) + ", " + VertexStr(u) +
                                      ") missing its reverse direction");
      }
    }
  }
  if (max_degree != g.MaxDegree()) {
    return ValidationResult::Fail("stored max degree " + std::to_string(g.MaxDegree()) +
                                  " but computed " + std::to_string(max_degree));
  }

  const std::size_t num_labels = g.NumLabels();
  for (VertexId v = 0; v < n; ++v) {
    if (labels[v] >= num_labels) {
      return ValidationResult::Fail("label " + std::to_string(labels[v]) + " of vertex " +
                                    VertexStr(v) + " out of range");
    }
  }
  if (label_offsets.size() != num_labels + 1) {
    return ValidationResult::Fail("label offset array has " +
                                  std::to_string(label_offsets.size()) +
                                  " entries, want NumLabels+1");
  }
  if (label_offsets[0] != 0) {
    return ValidationResult::Fail("label offset array does not start at 0");
  }
  for (std::size_t l = 0; l < num_labels; ++l) {
    if (label_offsets[l + 1] < label_offsets[l]) {
      return ValidationResult::Fail("label offsets not monotone at label " +
                                    std::to_string(l));
    }
  }
  if (label_offsets[num_labels] != label_members.size()) {
    return ValidationResult::Fail("label offsets end at " +
                                  std::to_string(label_offsets[num_labels]) +
                                  " but label membership has " +
                                  std::to_string(label_members.size()) + " entries");
  }
  if (label_members.size() != n) {
    return ValidationResult::Fail("label membership covers " +
                                  std::to_string(label_members.size()) +
                                  " vertices, want every vertex once (" +
                                  std::to_string(n) + ")");
  }
  for (Label l = 0; l < num_labels; ++l) {
    const auto members = g.VerticesWithLabel(l);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const VertexId v = members[i];
      if (v >= n) {
        return ValidationResult::Fail("label " + std::to_string(l) + " member " +
                                      VertexStr(v) + " out of range");
      }
      if (i > 0 && members[i - 1] >= v) {
        return ValidationResult::Fail("members of label " + std::to_string(l) +
                                      " not strictly ascending");
      }
      if (labels[v] != l) {
        return ValidationResult::Fail("vertex " + VertexStr(v) + " listed under label " +
                                      std::to_string(l) + " but carries label " +
                                      std::to_string(labels[v]));
      }
    }
  }
  // Strictly-ascending per-label lists whose members all carry the listed
  // label, totalling NumVertices entries, necessarily cover every vertex
  // exactly once — no separate coverage pass needed.
  return ValidationResult::Ok();
}

LabeledGraph ValidateAccess::RawGraph(std::vector<std::uint64_t> offsets,
                                      std::vector<VertexId> adjacency,
                                      std::vector<Label> labels,
                                      std::vector<std::uint64_t> label_offsets,
                                      std::vector<VertexId> label_members) {
  LabeledGraph g;
  std::size_t max_degree = 0;
  if (!offsets.empty()) {
    for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
      if (offsets[v + 1] >= offsets[v]) {
        max_degree = std::max<std::size_t>(max_degree, offsets[v + 1] - offsets[v]);
      }
    }
  }
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  g.labels_ = std::move(labels);
  g.label_offsets_ = std::move(label_offsets);
  g.label_members_ = std::move(label_members);
  g.max_degree_ = max_degree;
  return g;
}

std::unique_ptr<BcIndex> ValidateAccess::RawIndex(
    const LabeledGraph& g, std::vector<std::uint32_t> label_coreness,
    std::vector<std::uint32_t> max_core_per_label) {
  std::unique_ptr<BcIndex> index(new BcIndex());
  index->g_ = &g;
  index->coreness_ = std::make_shared<const LabelCorenessTable>(std::move(label_coreness),
                                                                std::move(max_core_per_label));
  return index;
}

void ValidateAccess::SetCachedPair(BcIndex& index, Label a, Label b,
                                   ButterflyCounts counts) {
  if (a > b) std::swap(a, b);
  index.pair_cache_.Erase(a, b);
  index.pair_cache_.Insert(a, b, std::move(counts), /*pin=*/false);
}

ValidationResult ValidateLabelCoreness(const LabeledGraph& g, const LabelCorenessTable& table) {
  const std::size_t n = g.NumVertices();
  if (table.coreness().size() != n) {
    return ValidationResult::Fail("coreness array has " +
                                  std::to_string(table.coreness().size()) +
                                  " entries, want one per vertex (" + std::to_string(n) + ")");
  }
  if (table.max_per_label().size() != g.NumLabels()) {
    return ValidationResult::Fail(
        "per-label max-coreness array has " + std::to_string(table.max_per_label().size()) +
        " entries, want one per label (" + std::to_string(g.NumLabels()) + ")");
  }

  // Coreness is cheap to recompute exactly (O(V + E) bucket peeling), so the
  // audit compares every vertex rather than sampling.
  const std::vector<std::uint32_t> want = LabelCoreness(g);
  for (VertexId v = 0; v < n; ++v) {
    if (table.Coreness(v) != want[v]) {
      return ValidationResult::Fail("coreness mismatch at vertex " + VertexStr(v) +
                                    ": stored " + std::to_string(table.Coreness(v)) +
                                    ", recomputed " + std::to_string(want[v]));
    }
  }
  std::vector<std::uint32_t> want_max(g.NumLabels(), 0);
  for (VertexId v = 0; v < n; ++v) {
    want_max[g.LabelOf(v)] = std::max(want_max[g.LabelOf(v)], want[v]);
  }
  for (Label l = 0; l < g.NumLabels(); ++l) {
    if (table.MaxCoreness(l) != want_max[l]) {
      return ValidationResult::Fail("max coreness of label " + std::to_string(l) +
                                    ": stored " + std::to_string(table.MaxCoreness(l)) +
                                    ", recomputed " + std::to_string(want_max[l]));
    }
  }
  return ValidationResult::Ok();
}

ValidationResult ValidateIndex(const BcIndex& index, std::size_t sample_pairs) {
  const LabeledGraph& g = index.graph();
  const std::size_t n = g.NumVertices();
  if (ValidationResult core = ValidateLabelCoreness(g, *index.coreness_table()); !core.ok) {
    return core;
  }

  // Pair cache: accounting counters, shape of every entry, exact recount on
  // a deterministic sample (butterfly recounts are the expensive part).
  if (ValidationResult acc = ValidatePairCacheAccounting(index); !acc.ok) return acc;
  struct CachedPair {
    Label a = 0, b = 0;
  };
  std::vector<CachedPair> keys;
  ValidationResult key_check = ValidationResult::Ok();
  index.ForEachCachedPair([&](Label a, Label b, const ButterflyCounts& counts) {
    if (!key_check.ok) return;
    if (a >= b || b >= g.NumLabels()) {
      key_check = ValidationResult::Fail("cached pair key (" + std::to_string(a) + ", " +
                                         std::to_string(b) + ") not canonical/in range");
      return;
    }
    if (counts.chi.size() != n) {
      key_check = ValidationResult::Fail(
          "cached butterfly degrees for pair (" + std::to_string(a) + ", " +
          std::to_string(b) + ") have " + std::to_string(counts.chi.size()) +
          " entries, want one per vertex");
      return;
    }
    keys.push_back({a, b});
  });
  if (!key_check.ok) return key_check;

  if (sample_pairs == 0 || keys.empty()) return ValidationResult::Ok();
  const std::size_t stride = std::max<std::size_t>(1, keys.size() / sample_pairs);
  for (std::size_t i = 0; i < keys.size() && i / stride < sample_pairs; i += stride) {
    const Label a = keys[i].a, b = keys[i].b;
    const auto left = g.VerticesWithLabel(a);
    const auto right = g.VerticesWithLabel(b);
    std::vector<char> in_left(n, 0), in_right(n, 0);
    for (VertexId v : left) in_left[v] = 1;
    for (VertexId v : right) in_right[v] = 1;
    const ButterflyCounts want_counts = CountButterflies(
        g, {left.begin(), left.end()}, {right.begin(), right.end()}, in_left, in_right);
    const auto got_pin = index.PairButterflies(a, b);
    const ButterflyCounts& got = *got_pin;
    if (got.total != want_counts.total || got.chi != want_counts.chi) {
      return ValidationResult::Fail("cached butterfly counts for pair (" +
                                    std::to_string(a) + ", " + std::to_string(b) +
                                    ") disagree with an exact recount");
    }
  }
  return ValidationResult::Ok();
}

ValidationResult ValidatePairCacheAccounting(const BcIndex& index) {
  const BlockCacheStats stats = index.PairCacheStats();
  std::size_t bytes = 0, pinned_bytes = 0, entries = 0, pinned_entries = 0;
  for (const auto& entry : index.CachedPairEntries()) {
    const std::size_t entry_bytes = ButterflyBlockCache::BytesOf(*entry.counts);
    ++entries;
    if (entry.pinned) {
      ++pinned_entries;
      pinned_bytes += entry_bytes;
    } else {
      bytes += entry_bytes;
    }
  }
  if (stats.entries != entries || stats.pinned_entries != pinned_entries) {
    return ValidationResult::Fail(
        "pair cache entry counters disagree with residents: stats say " +
        std::to_string(stats.entries) + " (" + std::to_string(stats.pinned_entries) +
        " pinned), recount says " + std::to_string(entries) + " (" +
        std::to_string(pinned_entries) + " pinned)");
  }
  if (stats.bytes != bytes || stats.pinned_bytes != pinned_bytes) {
    return ValidationResult::Fail(
        "pair cache byte counters disagree with residents: stats say " +
        std::to_string(stats.bytes) + " budgeted / " + std::to_string(stats.pinned_bytes) +
        " pinned, recount says " + std::to_string(bytes) + " / " +
        std::to_string(pinned_bytes));
  }
  if (stats.budget_bytes > 0 && stats.bytes > stats.budget_bytes) {
    return ValidationResult::Fail("pair cache over budget: " + std::to_string(stats.bytes) +
                                  " budgeted bytes resident, budget " +
                                  std::to_string(stats.budget_bytes));
  }
  return ValidationResult::Ok();
}

ValidationResult ValidateChangelogChain(const std::string& snapshot_path,
                                        std::uint64_t base_seq) {
  ChangelogReplay replay;
  std::string error;
  if (!ScanChangelog(snapshot_path, base_seq, &replay, &error)) {
    return ValidationResult::Fail(error);
  }
  if (!replay.stale_details.empty()) {
    const auto& s = replay.stale_details.front();
    return ValidationResult::Fail(
        "stale changelog segment at or below watermark " + std::to_string(base_seq) +
        ": " + s.path + " (seq " + std::to_string(s.seq) +
        ") — folded segments must be dropped, not resurrected");
  }
  for (std::size_t i = 0; i < replay.segment_details.size(); ++i) {
    const auto& seg = replay.segment_details[i];
    const bool is_tail = i + 1 == replay.segment_details.size();
    if (!is_tail && !seg.sealed) {
      return ValidationResult::Fail("unsealed non-tail changelog segment " + seg.path +
                                    " (seq " + std::to_string(seg.seq) + ")");
    }
    if (!is_tail && seg.torn) {
      return ValidationResult::Fail("torn non-tail changelog segment " + seg.path);
    }
  }
  return ValidationResult::Ok();
}

ValidationResult ValidateEpochHistory(const EpochHistoryView& h) {
  if (h.published == 0) {
    return ValidationResult::Fail("no published epoch slot (slot 0 is published at open)");
  }
  if (h.slots.size() != h.updates_admitted + 1) {
    return ValidationResult::Fail(
        "history has " + std::to_string(h.slots.size()) + " slots, want one per admitted "
        "update plus the base slot (" + std::to_string(h.updates_admitted + 1) + ")");
  }
  if (h.published > h.slots.size()) {
    return ValidationResult::Fail("published count " + std::to_string(h.published) +
                                  " exceeds slot count " + std::to_string(h.slots.size()));
  }
  if (h.release_cursor >= h.published) {
    return ValidationResult::Fail("release cursor " + std::to_string(h.release_cursor) +
                                  " at or past the published head " +
                                  std::to_string(h.published));
  }
  for (std::size_t i = 0; i < h.release_cursor; ++i) {
    if (h.slots[i].pending != 0) {
      return ValidationResult::Fail("released slot " + std::to_string(i) + " still has " +
                                    std::to_string(h.slots[i].pending) +
                                    " pinned queries");
    }
    if (h.slots[i].has_state) {
      return ValidationResult::Fail("released slot " + std::to_string(i) +
                                    " still holds epoch state");
    }
  }
  std::uint64_t prev_epoch = 0;
  for (std::size_t i = h.release_cursor; i < h.published; ++i) {
    if (!h.slots[i].has_state) {
      return ValidationResult::Fail("published slot " + std::to_string(i) +
                                    " lost its epoch state before draining");
    }
    if (h.slots[i].epoch < prev_epoch) {
      return ValidationResult::Fail("epoch numbers not monotone at slot " +
                                    std::to_string(i) + ": " +
                                    std::to_string(h.slots[i].epoch) + " after " +
                                    std::to_string(prev_epoch));
    }
    prev_epoch = h.slots[i].epoch;
  }
  for (std::size_t i = h.published; i < h.slots.size(); ++i) {
    if (h.slots[i].has_state) {
      return ValidationResult::Fail("unpublished slot " + std::to_string(i) +
                                    " already holds epoch state");
    }
  }
  return ValidationResult::Ok();
}

}  // namespace bccs
