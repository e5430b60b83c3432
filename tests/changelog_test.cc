// Rotated-changelog durability tests: append/rotate/scan round trips
// (effective source stamp, replay bit-identical to a fresh index build,
// rejection of a record that does not apply), per-byte torn-tail recovery, hard rejection of non-tail corruption,
// compaction folds (an exact index that answers like the replayed changelog,
// and crash idempotency via leftover stale segments and temp files), and the
// serve engine's durable-ack contract
// through AttachDurability.

#include "graph/changelog.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/resource.h>
#endif

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "eval/serve_engine.h"
#include "graph/compactor.h"
#include "graph/graph_delta.h"
#include "graph/snapshot.h"
#include "test_util.h"

namespace bccs {
namespace {

namespace fs = std::filesystem;
using testing::ExpectIndexMatchesFreshBuild;
using testing::MakeRandomGraph;

// Changelog's mutators and counters REQUIRE the commit lock; these helpers
// take it around the single-threaded test call sites.
bool LockedAppend(Changelog& log, std::span<const EdgeUpdate> updates,
                  std::string* error, const SourceGraphInfo& stamp = {}) {
  MutexLock commit(log.commit_mutex());
  return log.Append(updates, stamp, error);
}

struct LogCounters {
  std::uint64_t last_seq = 0;
  std::uint64_t sealed_seq = 0;
  std::size_t sealed_segments = 0;
  std::size_t updates_appended = 0;
};

LogCounters ReadCounters(Changelog& log) {
  MutexLock commit(log.commit_mutex());
  return {log.last_seq(), log.sealed_seq(), log.sealed_segments(),
          log.updates_appended()};
}

void ExpectSameGraph(const LabeledGraph& a, const LabeledGraph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    EXPECT_EQ(a.LabelOf(v), b.LabelOf(v));
    auto na = a.Neighbors(v);
    auto nb = b.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin())) << "vertex " << v;
  }
}

// Every cross-label pair served as LP and as L2P over one loaded bundle.
// With an index the engine pins the bundle's coreness table into both
// methods, so the answers read everything a snapshot carries.
std::vector<Community> ServeAllPairs(const SnapshotBundle& bundle) {
  const LabeledGraph& g = *bundle.graph;
  const auto n = static_cast<VertexId>(g.NumVertices());
  std::vector<QueryRequest> requests;
  for (VertexId ql = 0; ql < n; ++ql) {
    for (VertexId qr = ql + 1; qr < n; ++qr) {
      if (g.LabelOf(ql) == g.LabelOf(qr)) continue;
      for (QueryMethod m : {QueryMethod::kLpBcc, QueryMethod::kL2pBcc}) {
        QueryRequest req;
        req.query = BccQuery{ql, qr};
        req.method = m;
        requests.push_back(req);
      }
    }
  }
  BatchRunner runner(1);
  ServeEngine engine(runner, g, bundle.index.get());
  return engine.Serve(requests).communities;
}

class ChangelogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "changelog_test.snap";
    Cleanup();
  }
  void TearDown() override { Cleanup(); }

  void Cleanup() {
    std::error_code ec;
    fs::remove(path_, ec);
    fs::remove(CompactionTempPath(path_), ec);
    RemoveChangelogSegments(path_);
  }

  std::string SegmentPath(std::uint64_t seq) const {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%06llu", static_cast<unsigned long long>(seq));
    return path_ + ".log." + buf;
  }

  // One single-delete batch per call, each deleting a distinct edge of the
  // ORIGINAL graph, so any prefix of the history is a valid replay.
  std::vector<std::vector<EdgeUpdate>> DeleteBatches(const LabeledGraph& g,
                                                     std::size_t count) {
    std::vector<Edge> edges = g.AllEdges();
    EXPECT_GE(edges.size(), count);
    std::vector<std::vector<EdgeUpdate>> out;
    for (std::size_t i = 0; i < count && i < edges.size(); ++i) {
      out.push_back({{EdgeUpdateKind::kDelete, edges[i]}});
    }
    return out;
  }

  LabeledGraph ApplyPrefix(const LabeledGraph& g,
                           const std::vector<std::vector<EdgeUpdate>>& batches,
                           std::size_t prefix) {
    LabeledGraph cur = g;
    for (std::size_t i = 0; i < prefix; ++i) {
      auto delta = BuildGraphDelta(cur, batches[i]);
      EXPECT_TRUE(delta.has_value());
      cur = ApplyGraphDelta(cur, *delta);
    }
    return cur;
  }

  std::string path_;
};

TEST(FsyncPolicyTest, ParsesTheFlagValues) {
  FsyncPolicy p = FsyncPolicy::kNone;
  EXPECT_TRUE(ParseFsyncPolicy("none", &p));
  EXPECT_EQ(p, FsyncPolicy::kNone);
  EXPECT_TRUE(ParseFsyncPolicy("on-rotation", &p));
  EXPECT_EQ(p, FsyncPolicy::kOnRotation);
  EXPECT_TRUE(ParseFsyncPolicy("every-append", &p));
  EXPECT_EQ(p, FsyncPolicy::kEveryAppend);
  EXPECT_FALSE(ParseFsyncPolicy("always", &p));
  EXPECT_FALSE(ParseFsyncPolicy("", &p));
  EXPECT_STREQ(Name(FsyncPolicy::kNone), "none");
  EXPECT_STREQ(Name(FsyncPolicy::kOnRotation), "on-rotation");
  EXPECT_STREQ(Name(FsyncPolicy::kEveryAppend), "every-append");
}

TEST_F(ChangelogTest, AppendRotateScanRoundTrip) {
  LabeledGraph g = MakeRandomGraph(30, 0.2, 3, 900);
  BcIndex index(g);
  index.MaterializeAllPairs();
  const SourceGraphInfo base_stamp{100, 200};
  ASSERT_TRUE(SaveSnapshot(index, path_, nullptr, base_stamp));

  ChangelogOptions opts;
  opts.fsync = FsyncPolicy::kEveryAppend;
  opts.segment_blocks = 2;  // rotate after every second record
  ChangelogStatus st;
  std::string error;
  auto log = Changelog::Open(path_, 0, opts, &st, &error);
  ASSERT_NE(log, nullptr) << error;
  EXPECT_EQ(st.segments, 0u);

  // Record i is stamped {300 + i, 400 + i}: the source graph the snapshot
  // represents once it is replayed.
  const auto batches = DeleteBatches(g, 5);
  std::vector<EdgeUpdate> all;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const SourceGraphInfo stamp{300 + i, 400 + i};
    ASSERT_TRUE(LockedAppend(*log, std::span<const EdgeUpdate>(batches[i]), &error, stamp))
        << error;
    all.insert(all.end(), batches[i].begin(), batches[i].end());
  }
  // 5 records at 2 per segment: segments 1 and 2 sealed, 3 is the live tail.
  EXPECT_EQ(ReadCounters(*log).last_seq, 3u);
  EXPECT_EQ(ReadCounters(*log).sealed_seq, 2u);
  EXPECT_EQ(ReadCounters(*log).sealed_segments, 2u);
  EXPECT_EQ(ReadCounters(*log).updates_appended, 5u);
  EXPECT_TRUE(fs::exists(SegmentPath(1)));
  EXPECT_TRUE(fs::exists(SegmentPath(2)));
  EXPECT_TRUE(fs::exists(SegmentPath(3)));

  // Read-only scan sees every record in order, torn-free.
  ChangelogReplay replay;
  ASSERT_TRUE(ScanChangelog(path_, 0, &replay, &error)) << error;
  EXPECT_EQ(replay.segments, 3u);
  EXPECT_EQ(replay.sealed_segments, 2u);
  EXPECT_EQ(replay.records, 5u);
  EXPECT_EQ(replay.torn_tail_bytes, 0u);
  ASSERT_EQ(replay.updates.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(replay.updates[i].kind, all[i].kind) << i;
    EXPECT_EQ(replay.updates[i].edge.u, all[i].edge.u) << i;
    EXPECT_EQ(replay.updates[i].edge.v, all[i].edge.v) << i;
  }

  // LoadSnapshot replays the changelog on top of the base payload; with no
  // expected source (unknown) the staleness check is skipped. The replayed
  // index is bit-identical to a fresh build of the updated graph.
  const LabeledGraph updated = ApplyPrefix(g, batches, 5);
  auto loaded = LoadSnapshot(path_, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->replayed_updates, 5u);
  EXPECT_EQ(loaded->changelog_segments, 3u);
  ExpectSameGraph(*loaded->graph, updated);
  ExpectIndexMatchesFreshBuild(*loaded->index, updated, "after replay");

  // The effective stamp is the LAST record's: the base payload is stale
  // relative to it, yet the load succeeds and replays. The base stamp and
  // an earlier record's stamp are both stale.
  SnapshotLoadOptions stamped;
  stamped.expected_source = SourceGraphInfo{304, 404};
  loaded = LoadSnapshot(path_, &error, stamped);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->replayed_updates, 5u);
  for (const SourceGraphInfo& old : {base_stamp, SourceGraphInfo{303, 403}}) {
    stamped.expected_source = old;
    EXPECT_FALSE(LoadSnapshot(path_, &error, stamped));
    EXPECT_NE(error.find("stale"), std::string::npos) << error;
  }

  // Reopening (clean shutdown) recovers every record and keeps appending
  // where the last handle stopped.
  log.reset();
  auto reopened = OpenSnapshotWithChangelog(path_, opts, {}, &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  EXPECT_EQ(reopened->bundle.replayed_updates, 5u);
  EXPECT_EQ(reopened->status.records, 5u);
  EXPECT_EQ(reopened->status.truncated_bytes, 0u);
  EXPECT_EQ(ReadCounters(*reopened->log).last_seq, 3u);
  ExpectSameGraph(*reopened->bundle.graph, updated);

  // Re-appending batch 0 deletes an edge the replayed state no longer has.
  // The scan layer checks integrity only, so it still sees one more record
  // in the same tail segment...
  ASSERT_TRUE(LockedAppend(*reopened->log, std::span<const EdgeUpdate>(batches[0]), &error))
      << error;
  ChangelogReplay again;
  ASSERT_TRUE(ScanChangelog(path_, 0, &again, &error)) << error;
  EXPECT_EQ(again.records, 6u);
  EXPECT_EQ(again.segments, 3u);
  // ...but LoadSnapshot replays against the stored graph and rejects the
  // record rather than serving a state that skips it.
  EXPECT_FALSE(LoadSnapshot(path_, &error));
  EXPECT_NE(error.find("does not apply"), std::string::npos) << error;
}

TEST_F(ChangelogTest, TornTailTruncatedAtEveryByteOffset) {
  LabeledGraph g = MakeRandomGraph(24, 0.2, 3, 901);
  BcIndex index(g);
  index.MaterializeAllPairs();
  ASSERT_TRUE(SaveSnapshot(index, path_));

  ChangelogOptions opts;
  opts.fsync = FsyncPolicy::kNone;  // keep the tail unsealed
  opts.segment_blocks = 64;
  std::string error;
  auto log = Changelog::Open(path_, 0, opts, nullptr, &error);
  ASSERT_NE(log, nullptr) << error;

  const auto batches = DeleteBatches(g, 3);
  const std::string tail = SegmentPath(1);
  std::vector<std::uint64_t> size_after;  // record boundaries in the tail
  for (const auto& b : batches) {
    ASSERT_TRUE(LockedAppend(*log, std::span<const EdgeUpdate>(b), &error)) << error;
    size_after.push_back(fs::file_size(tail));
  }
  log.reset();
  const std::uint64_t header_bytes = size_after[0] - (size_after[1] - size_after[0]);
  ASSERT_GT(header_bytes, 0u);

  // Keep a pristine copy; each iteration restores it and cuts the tail at
  // one byte offset. Every cut must recover to the longest record prefix
  // that fits — never an error, never a partial record.
  const std::string pristine = tail + ".orig";
  fs::copy_file(tail, pristine, fs::copy_options::overwrite_existing);
  for (std::uint64_t cut = header_bytes; cut < size_after.back(); ++cut) {
    fs::copy_file(pristine, tail, fs::copy_options::overwrite_existing);
    fs::resize_file(tail, cut);

    std::size_t complete = 0;
    while (complete < size_after.size() && size_after[complete] <= cut) ++complete;

    auto recovered = OpenSnapshotWithChangelog(path_, opts, {}, &error);
    ASSERT_TRUE(recovered.has_value()) << "cut at " << cut << ": " << error;
    EXPECT_EQ(recovered->bundle.replayed_updates, complete) << "cut at " << cut;
    const std::uint64_t prefix_end = complete > 0 ? size_after[complete - 1] : header_bytes;
    EXPECT_EQ(recovered->status.truncated_bytes, cut - prefix_end)
        << "cut at " << cut;
    ExpectSameGraph(*recovered->bundle.graph, ApplyPrefix(g, batches, complete));
    // Repair is physical: the torn bytes are gone and the tail is
    // append-ready at the prefix boundary (or the record-less tail file was
    // dropped outright).
    if (fs::exists(tail)) {
      EXPECT_EQ(fs::file_size(tail), prefix_end) << "cut at " << cut;
    } else {
      EXPECT_EQ(complete, 0u) << "cut at " << cut;
    }
  }
  fs::remove(pristine);
}

#if defined(__unix__) || defined(__APPLE__)
// A transient append failure must not poison the segment for later appends:
// the rollback truncates the torn fragment away, and the NEXT acknowledged
// append must continue exactly at the rolled-back offset (O_APPEND), never
// beyond a zero-filled hole left by the fd's stale offset — a hole would
// make recovery truncate there and silently drop records acknowledged
// after the failure. RLIMIT_FSIZE induces the partial write: the kernel
// writes the bytes that fit under the cap, then fails the retry.
TEST_F(ChangelogTest, AppendAfterRolledBackFailureLeavesNoHole) {
  LabeledGraph g = MakeRandomGraph(24, 0.2, 3, 906);
  BcIndex index(g);
  index.MaterializeAllPairs();
  ASSERT_TRUE(SaveSnapshot(index, path_));

  ChangelogOptions opts;
  opts.fsync = FsyncPolicy::kNone;  // keep the tail unsealed
  opts.segment_blocks = 64;
  std::string error;
  auto log = Changelog::Open(path_, 0, opts, nullptr, &error);
  ASSERT_NE(log, nullptr) << error;

  const auto batches = DeleteBatches(g, 3);
  ASSERT_TRUE(LockedAppend(*log, std::span<const EdgeUpdate>(batches[0]), &error))
      << error;
  const std::string tail = SegmentPath(1);
  const std::uint64_t acked_bytes = fs::file_size(tail);

  struct rlimit old_lim;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_lim), 0);
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of death
  struct rlimit capped = old_lim;
  capped.rlim_cur = acked_bytes + 8;  // room for a torn fragment, not a record
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  EXPECT_FALSE(LockedAppend(*log, std::span<const EdgeUpdate>(batches[1]), &error));
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_lim), 0);
  std::signal(SIGXFSZ, old_handler);

  // Rollback restored the acked prefix physically.
  EXPECT_EQ(fs::file_size(tail), acked_bytes);

  // The log is NOT broken: the next append is acknowledged and recovery
  // replays both acked records — nothing torn, nothing dropped.
  ASSERT_TRUE(LockedAppend(*log, std::span<const EdgeUpdate>(batches[2]), &error))
      << error;
  log.reset();
  auto recovered = OpenSnapshotWithChangelog(path_, opts, {}, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  EXPECT_EQ(recovered->status.truncated_bytes, 0u);
  EXPECT_EQ(recovered->bundle.replayed_updates, 2u);
  const std::vector<std::vector<EdgeUpdate>> acked = {batches[0], batches[2]};
  ExpectSameGraph(*recovered->bundle.graph, ApplyPrefix(g, acked, 2));
}
#endif  // defined(__unix__) || defined(__APPLE__)

TEST_F(ChangelogTest, NonTailCorruptionIsAHardError) {
  LabeledGraph g = MakeRandomGraph(24, 0.2, 3, 902);
  BcIndex index(g);
  index.MaterializeAllPairs();
  ASSERT_TRUE(SaveSnapshot(index, path_));

  ChangelogOptions opts;
  opts.segment_blocks = 1;  // every record in its own sealed segment
  std::string error;
  auto log = Changelog::Open(path_, 0, opts, nullptr, &error);
  ASSERT_NE(log, nullptr) << error;
  const auto batches = DeleteBatches(g, 2);
  for (const auto& b : batches) {
    ASSERT_TRUE(LockedAppend(*log, std::span<const EdgeUpdate>(b), &error)) << error;
  }
  log.reset();
  ASSERT_TRUE(fs::exists(SegmentPath(2)));

  // Flip one payload byte in the FIRST (sealed, non-tail) segment: that is
  // corruption of possibly-acknowledged data, not a torn tail.
  {
    std::fstream f(SegmentPath(1), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40);
    char c = 0;
    f.read(&c, 1);
    f.seekp(40);
    c = static_cast<char>(c ^ 0x20);
    f.write(&c, 1);
  }
  ChangelogReplay replay;
  EXPECT_FALSE(ScanChangelog(path_, 0, &replay, &error));
  EXPECT_FALSE(LoadSnapshot(path_, &error).has_value());
  EXPECT_EQ(Changelog::Open(path_, 0, opts, nullptr, &error), nullptr);

  // A sequence gap (segment 1 missing entirely) is equally fatal.
  Cleanup();
  ASSERT_TRUE(SaveSnapshot(index, path_));
  log = Changelog::Open(path_, 0, opts, nullptr, &error);
  ASSERT_NE(log, nullptr) << error;
  for (const auto& b : batches) {
    ASSERT_TRUE(LockedAppend(*log, std::span<const EdgeUpdate>(b), &error)) << error;
  }
  log.reset();
  fs::remove(SegmentPath(1));
  EXPECT_FALSE(ScanChangelog(path_, 0, &replay, &error));
  EXPECT_EQ(Changelog::Open(path_, 0, opts, nullptr, &error), nullptr);
}

TEST_F(ChangelogTest, CompactionFoldsAndStaysIdempotentAcrossCrashes) {
  LabeledGraph g = MakeRandomGraph(30, 0.2, 3, 903);
  BcIndex index(g);
  index.MaterializeAllPairs();
  ASSERT_TRUE(SaveSnapshot(index, path_));

  ChangelogOptions opts;
  opts.segment_blocks = 1;
  std::string error;
  auto recovered = OpenSnapshotWithChangelog(path_, opts, {}, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  Changelog& log = *recovered->log;

  const auto batches = DeleteBatches(g, 2);
  std::vector<EdgeUpdate> flat;
  for (const auto& b : batches) {
    ASSERT_TRUE(LockedAppend(log, std::span<const EdgeUpdate>(b), &error)) << error;
    flat.insert(flat.end(), b.begin(), b.end());
  }
  ASSERT_EQ(ReadCounters(log).sealed_segments, 2u);

  // The folded state: base graph + both batches, re-indexed.
  const LabeledGraph folded_graph = ApplyPrefix(g, batches, 2);
  auto folded_index = std::make_shared<BcIndex>(folded_graph);
  folded_index->MaterializeAllPairs();
  Compactor::State state;
  state.graph = std::make_shared<const LabeledGraph>(folded_graph);
  state.index = folded_index;

  CompactorOptions copts;
  copts.threshold_segments = 4;
  Compactor compactor(log, [&state] { return state; }, copts);

  // Below the threshold: RunOnce(false) is a no-op.
  bool folded = false;
  ASSERT_TRUE(compactor.RunOnce(/*force=*/false, &error, &folded)) << error;
  EXPECT_FALSE(folded);
  EXPECT_TRUE(fs::exists(SegmentPath(1)));

  // The pre-fold recovery state: the base plus both segments replayed.
  auto replayed = LoadSnapshot(path_, &error);
  ASSERT_TRUE(replayed.has_value()) << error;
  ASSERT_EQ(replayed->replayed_updates, 2u);
  const std::vector<Community> replayed_answers = ServeAllPairs(*replayed);

  // Keep copies of the sealed segments to resurrect after the fold — the
  // on-disk picture of a crash BETWEEN the rename and the segment drop.
  const std::string keep1 = SegmentPath(1) + ".keep";
  const std::string keep2 = SegmentPath(2) + ".keep";
  fs::copy_file(SegmentPath(1), keep1);
  fs::copy_file(SegmentPath(2), keep2);

  ASSERT_TRUE(compactor.RunOnce(/*force=*/true, &error, &folded)) << error;
  EXPECT_TRUE(folded);
  EXPECT_EQ(compactor.folds(), 1u);
  EXPECT_FALSE(fs::exists(SegmentPath(1)));
  EXPECT_FALSE(fs::exists(SegmentPath(2)));
  EXPECT_FALSE(fs::exists(CompactionTempPath(path_)));

  // The new base carries the watermark and needs no replay.
  auto loaded = LoadSnapshot(path_, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->base_changelog_seq, 2u);
  EXPECT_EQ(loaded->replayed_updates, 0u);
  ExpectSameGraph(*loaded->graph, folded_graph);
  ExpectIndexMatchesFreshBuild(*loaded->index, folded_graph, "folded base");

  // Recovery is exact: the folded base answers LP and L2P exactly like the
  // replayed changelog it replaced.
  const std::vector<Community> folded_answers = ServeAllPairs(*loaded);
  ASSERT_EQ(folded_answers.size(), replayed_answers.size());
  std::size_t non_empty = 0;
  for (std::size_t i = 0; i < folded_answers.size(); ++i) {
    EXPECT_EQ(folded_answers[i].vertices, replayed_answers[i].vertices) << "request " << i;
    non_empty += folded_answers[i].Empty() ? 0 : 1;
  }
  EXPECT_GT(non_empty, 0u);

  // Crash idempotency: stale segments (seq <= watermark) plus a leftover
  // compaction temp file are swept on the next open, and the recovered
  // state is the folded one — the folded records do NOT replay twice.
  fs::rename(keep1, SegmentPath(1));
  fs::rename(keep2, SegmentPath(2));
  {
    std::ofstream tmp(CompactionTempPath(path_), std::ios::binary);
    tmp << "leftover garbage from a crashed fold";
  }
  recovered.reset();  // release the old handle before reopening
  auto reopened = OpenSnapshotWithChangelog(path_, opts, {}, &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  EXPECT_EQ(reopened->status.stale_segments_removed, 2u);
  EXPECT_EQ(reopened->bundle.replayed_updates, 0u);
  EXPECT_FALSE(fs::exists(SegmentPath(1)));
  EXPECT_FALSE(fs::exists(SegmentPath(2)));
  EXPECT_FALSE(fs::exists(CompactionTempPath(path_)));
  ExpectSameGraph(*reopened->bundle.graph, folded_graph);

  // Appends resume ABOVE the watermark; the next scan replays only them.
  const auto more = DeleteBatches(folded_graph, 1);
  ASSERT_TRUE(LockedAppend(*reopened->log, std::span<const EdgeUpdate>(more[0]), &error))
      << error;
  EXPECT_EQ(ReadCounters(*reopened->log).last_seq, 3u);
  auto after = LoadSnapshot(path_, &error);
  ASSERT_TRUE(after.has_value()) << error;
  EXPECT_EQ(after->replayed_updates, 1u);
  ExpectSameGraph(*after->graph, ApplyPrefix(folded_graph, more, 1));
}

// --------------------------------------------------------------------------
// ServeEngine durable-ack contract.
// --------------------------------------------------------------------------

TEST_F(ChangelogTest, ServeEngineAppendsAppliedUpdatesDurably) {
  LabeledGraph g = MakeRandomGraph(30, 0.2, 3, 904);
  BcIndex index(g);
  index.MaterializeAllPairs();
  ASSERT_TRUE(SaveSnapshot(index, path_));

  ChangelogOptions opts;
  opts.fsync = FsyncPolicy::kEveryAppend;
  std::string error;
  auto log = Changelog::Open(path_, 0, opts, nullptr, &error);
  ASSERT_NE(log, nullptr) << error;

  const auto batches = DeleteBatches(g, 1);
  BatchRunner runner(2);
  ServeEngine engine(runner, g, &index);
  engine.AttachDurability(log.get());

  UpdateRequest del;
  del.updates = batches[0];
  std::vector<ServeItem> items = {ServeItem(del)};
  BatchResult result = engine.RunStream(items);
  ASSERT_EQ(result.updates.size(), 1u);
  ASSERT_TRUE(result.updates[0].applied) << result.updates[0].error;
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_EQ(ReadCounters(*log).updates_appended, 1u);
  EXPECT_EQ(ReadCounters(*log).last_seq, 1u);

  // Restart: the applied update is on disk and replays.
  log.reset();
  auto loaded = LoadSnapshot(path_, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->replayed_updates, 1u);
  ExpectSameGraph(*loaded->graph, ApplyPrefix(g, batches, 1));
}

TEST_F(ChangelogTest, ServeEngineRejectsTheBatchWhenTheAppendFails) {
  const std::string dir = ::testing::TempDir() + "changelog_fail_dir";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const std::string snap = dir + "/w.snap";

  LabeledGraph g = MakeRandomGraph(24, 0.2, 3, 905);
  BcIndex index(g);
  index.MaterializeAllPairs();
  std::string error;
  ASSERT_TRUE(SaveSnapshot(index, snap, &error)) << error;

  auto log = Changelog::Open(snap, 0, {}, nullptr, &error);
  ASSERT_NE(log, nullptr) << error;

  BatchRunner runner(1);
  ServeEngine engine(runner, g, &index);
  engine.AttachDurability(log.get());

  // Tear the directory out from under the changelog: the first append must
  // fail to create its segment, and the engine must refuse to publish the
  // epoch — "applied" may never outrun what the log acknowledged.
  fs::remove_all(dir, ec);
  UpdateRequest del;
  del.updates = {{EdgeUpdateKind::kDelete, g.AllEdges().front()}};
  std::vector<ServeItem> items = {ServeItem(del)};
  BatchResult result = engine.RunStream(items);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_FALSE(result.updates[0].applied);
  EXPECT_NE(result.updates[0].error.find("durability append failed"),
            std::string::npos)
      << result.updates[0].error;
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(ReadCounters(*log).updates_appended, 0u);
}

}  // namespace
}  // namespace bccs
