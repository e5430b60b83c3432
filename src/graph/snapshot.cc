#include "graph/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/changelog.h"
#include "graph/fnv1a64.h"
#include "graph/graph_delta.h"
#include "graph/posix_io.h"

#if defined(__unix__) || defined(__APPLE__)
#define BCCS_HAVE_MMAP 1
#include <sys/mman.h>
#endif

namespace bccs {

/// Friend of LabeledGraph and BcIndex: the only code allowed to assemble the
/// two classes field by field from mapped arrays.
class SnapshotAccess {
 public:
  static std::span<const std::uint64_t> Offsets(const LabeledGraph& g) {
    return g.offsets_.span();
  }
  static std::span<const VertexId> Adjacency(const LabeledGraph& g) {
    return g.adjacency_.span();
  }
  static std::span<const Label> Labels(const LabeledGraph& g) { return g.labels_.span(); }
  static std::span<const std::uint64_t> LabelOffsets(const LabeledGraph& g) {
    return g.label_offsets_.span();
  }
  static std::span<const VertexId> LabelMembers(const LabeledGraph& g) {
    return g.label_members_.span();
  }

  static std::shared_ptr<const LabeledGraph> MakeGraph(
      std::span<const std::uint64_t> offsets, std::span<const VertexId> adjacency,
      std::span<const Label> labels, std::span<const std::uint64_t> label_offsets,
      std::span<const VertexId> label_members, std::size_t max_degree,
      std::shared_ptr<const void> keepalive) {
    auto g = std::make_shared<LabeledGraph>();
    g->offsets_ = ArrayRef<std::uint64_t>::View(offsets.data(), offsets.size());
    g->adjacency_ = ArrayRef<VertexId>::View(adjacency.data(), adjacency.size());
    g->labels_ = ArrayRef<Label>::View(labels.data(), labels.size());
    g->label_offsets_ =
        ArrayRef<std::uint64_t>::View(label_offsets.data(), label_offsets.size());
    g->label_members_ = ArrayRef<VertexId>::View(label_members.data(), label_members.size());
    g->max_degree_ = max_degree;
    g->keepalive_ = std::move(keepalive);
    return g;
  }

  static std::unique_ptr<BcIndex> MakeIndex(
      const LabeledGraph* g, std::span<const std::uint32_t> coreness,
      std::span<const std::uint32_t> max_core,
      std::map<std::pair<Label, Label>, ButterflyCounts> pairs) {
    std::unique_ptr<BcIndex> index(new BcIndex());
    index->g_ = g;
    index->coreness_ = std::make_shared<const LabelCorenessTable>(
        ArrayRef<std::uint32_t>::View(coreness.data(), coreness.size()),
        ArrayRef<std::uint32_t>::View(max_core.data(), max_core.size()));
    // Snapshot-loaded pairs are pinned: they were materialized before the
    // save, so they stay resident regardless of any serving byte budget.
    for (auto& [key, counts] : pairs) {
      index->pair_cache_.Insert(key.first, key.second, std::move(counts), /*pin=*/true);
    }
    return index;
  }
};

namespace {

constexpr char kMagicBytes[8] = {'B', 'C', 'C', 'S', 'N', 'A', 'P', '1'};
// Written on the host as 0x01020304; a reader on a machine with different
// byte order sees a permutation and rejects the file.
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kSectionAlign = 64;

struct SnapshotHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint64_t num_vertices;
  std::uint64_t num_labels;
  std::uint64_t adjacency_size;
  std::uint64_t num_pairs;
  std::uint64_t max_degree;
  std::uint64_t source_graph_size;      // source text graph identity;
  std::uint64_t source_graph_mtime_ns;  // 0/0 = unknown (no staleness check)
  std::uint64_t base_changelog_seq;     // changelog segments <= this are folded in
  std::uint64_t payload_checksum;       // FNV-1a64 of the payload bytes
};
static_assert(sizeof(SnapshotHeader) == 88, "snapshot header must stay 88 bytes");

struct SnapshotPairEntry {
  std::uint32_t label_a;
  std::uint32_t label_b;
  std::uint64_t chi_len;  // |members(a)| + |members(b)|
  std::uint64_t total;
  std::uint64_t max_left;
  std::uint64_t max_right;
  std::uint32_t argmax_left;
  std::uint32_t argmax_right;
};
static_assert(sizeof(SnapshotPairEntry) == 48, "pair entry layout drifted");

constexpr std::size_t Align(std::size_t offset) {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

/// Byte offsets of the fixed-size payload sections; the per-pair chi arrays
/// follow `chi` back to back (all 8-byte aligned).
struct Layout {
  std::size_t offsets, adjacency, labels, label_offsets, label_members;
  std::size_t coreness, max_core, pairs, chi;
};

Layout ComputeLayout(std::uint64_t n, std::uint64_t num_labels, std::uint64_t adjacency_size,
                     std::uint64_t num_pairs) {
  Layout l;
  std::size_t off = sizeof(SnapshotHeader);
  auto section = [&off](std::size_t bytes) {
    std::size_t start = Align(off);
    off = start + bytes;
    return start;
  };
  l.offsets = section((n + 1) * sizeof(std::uint64_t));
  l.adjacency = section(adjacency_size * sizeof(VertexId));
  l.labels = section(n * sizeof(Label));
  l.label_offsets = section((num_labels + 1) * sizeof(std::uint64_t));
  l.label_members = section(n * sizeof(VertexId));
  l.coreness = section(n * sizeof(std::uint32_t));
  l.max_core = section(num_labels * sizeof(std::uint32_t));
  l.pairs = section(num_pairs * sizeof(SnapshotPairEntry));
  l.chi = section(0);
  return l;
}

bool IoFail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// ---------------------------------------------------------------------------
// Writer. Raw POSIX fds where available: fdatasync needs the fd, and the
// fault-injection harness interposes the libc write symbol — which
// buffered iostreams bypass internally (glibc stdio calls hidden aliases).
// ---------------------------------------------------------------------------

class FileSink {
 public:
  FileSink() = default;
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;
  ~FileSink() {
#if BCCS_HAVE_POSIX_IO
    if (fd_ >= 0) ::close(fd_);
#endif
  }

  bool Open(const std::string& path) {
#if BCCS_HAVE_POSIX_IO
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    return fd_ >= 0;
#else
    out_.open(path, std::ios::binary | std::ios::trunc);
    return static_cast<bool>(out_);
#endif
  }

  bool Write(const void* data, std::size_t len) {
#if BCCS_HAVE_POSIX_IO
    return internal::FullWrite(fd_, data, len);
#else
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
    return static_cast<bool>(out_);
#endif
  }

  /// Patches previously written bytes (the checksum back-fill).
  bool WriteAt(std::size_t offset, const void* data, std::size_t len) {
#if BCCS_HAVE_POSIX_IO
    return internal::FullWriteAt(fd_, offset, data, len);
#else
    out_.seekp(static_cast<std::streamoff>(offset), std::ios::beg);
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
    return static_cast<bool>(out_);
#endif
  }

  bool Close() {
#if BCCS_HAVE_POSIX_IO
    if (fd_ < 0) return false;
    const bool ok = ::close(fd_) == 0;
    fd_ = -1;
    return ok;
#else
    out_.flush();
    const bool ok = static_cast<bool>(out_);
    out_.close();
    return ok;
#endif
  }

 private:
#if BCCS_HAVE_POSIX_IO
  int fd_ = -1;
#else
  std::ofstream out_;
#endif
};

class SnapshotWriter {
 public:
  explicit SnapshotWriter(FileSink& out) : out_(&out) {}

  void WriteRaw(const void* data, std::size_t len) {
    if (len == 0) return;
    ok_ = ok_ && out_->Write(data, len);
    offset_ += len;
  }

  /// Checksummed payload bytes at the current offset (no alignment; used for
  /// the back-to-back chi arrays).
  template <typename T>
  void WriteArray(std::span<const T> data) {
    if (data.empty()) return;
    checksum_.Update(data.data(), data.size_bytes());
    WriteRaw(data.data(), data.size_bytes());
  }

  /// A payload section: zero-padded to the next 64-byte boundary (the pad
  /// bytes are part of the checksummed payload), then the array.
  template <typename T>
  void WriteSection(std::span<const T> data) {
    PadTo(Align(offset_));
    WriteArray(data);
  }

  void PadTo(std::size_t target) {
    static constexpr char kZeros[kSectionAlign] = {};
    while (offset_ < target) {
      std::size_t chunk = std::min(target - offset_, sizeof(kZeros));
      checksum_.Update(kZeros, chunk);
      WriteRaw(kZeros, chunk);
    }
  }

  std::size_t offset() const { return offset_; }
  std::uint64_t Checksum() const { return checksum_.Digest(); }
  bool ok() const { return ok_; }

 private:
  FileSink* out_;
  std::size_t offset_ = 0;
  bool ok_ = true;
  Fnv1a64 checksum_;
};

// ---------------------------------------------------------------------------
// File mapping (mmap with a read() fallback).
// ---------------------------------------------------------------------------

struct MappedFile {
  const std::byte* data = nullptr;
  std::size_t size = 0;
  bool mapped = false;

#if BCCS_HAVE_MMAP
  void* map_base = nullptr;
#endif
  std::vector<std::byte> heap;  // read() fallback storage

  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
#if BCCS_HAVE_MMAP
    if (map_base != nullptr) ::munmap(map_base, size);
#endif
  }
};

std::shared_ptr<MappedFile> OpenSnapshotFile(const std::string& path, bool allow_mmap,
                                             std::string* error) {
  auto file = std::make_shared<MappedFile>();
#if BCCS_HAVE_MMAP
  if (allow_mmap) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      IoFail(error, "cannot open " + path);
      return nullptr;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      IoFail(error, "cannot stat " + path);
      return nullptr;
    }
    file->size = static_cast<std::size_t>(st.st_size);
    if (file->size > 0) {
      void* base = ::mmap(nullptr, file->size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (base == MAP_FAILED) {
        IoFail(error, "mmap failed for " + path);
        return nullptr;
      }
      file->map_base = base;
      file->data = static_cast<const std::byte*>(base);
    } else {
      ::close(fd);
    }
    file->mapped = true;
    return file;
  }
#else
  (void)allow_mmap;
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    IoFail(error, "cannot open " + path);
    return nullptr;
  }
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0) {
    IoFail(error, "cannot read " + path);
    return nullptr;
  }
  file->heap.resize(static_cast<std::size_t>(end));
  if (!file->heap.empty() &&
      !in.read(reinterpret_cast<char*>(file->heap.data()),
               static_cast<std::streamsize>(file->heap.size()))) {
    IoFail(error, "cannot read " + path);
    return nullptr;
  }
  file->data = file->heap.data();
  file->size = file->heap.size();
  return file;
}

template <typename T>
std::span<const T> SectionView(const MappedFile& file, std::size_t offset, std::size_t count) {
  return {reinterpret_cast<const T*>(file.data + offset), count};
}

}  // namespace

SourceGraphInfo StatSourceGraph(const std::string& path) {
  SourceGraphInfo info;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return info;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return info;
  info.size_bytes = static_cast<std::uint64_t>(size);
  info.mtime_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(mtime.time_since_epoch())
          .count());
  return info;
}

bool SaveSnapshot(const BcIndex& index, const std::string& path, std::string* error,
                  const SourceGraphInfo& source, std::uint64_t base_changelog_seq) {
  const LabeledGraph& g = index.graph();
  const auto offsets = SnapshotAccess::Offsets(g);
  const auto adjacency = SnapshotAccess::Adjacency(g);
  const auto labels = SnapshotAccess::Labels(g);
  const auto label_offsets = SnapshotAccess::LabelOffsets(g);
  const auto label_members = SnapshotAccess::LabelMembers(g);
  const auto coreness = index.coreness_table()->coreness();
  const auto max_core = index.coreness_table()->max_per_label();

  // Collect the resident pairs up front as pinned shared_ptr blocks, in
  // sorted key order. The pins keep each block alive for the duration of the
  // serialization even if a concurrently serving thread evicts it from the
  // byte-budgeted cache (the compactor saves the live serving index).
  std::vector<std::tuple<Label, Label, std::shared_ptr<const ButterflyCounts>>> pairs;
  for (auto& entry : index.CachedPairEntries()) {
    pairs.emplace_back(entry.a, entry.b, std::move(entry.counts));
  }

  SnapshotHeader header = {};
  std::memcpy(header.magic, kMagicBytes, sizeof(header.magic));
  header.version = kSnapshotFormatVersion;
  header.endian = kEndianTag;
  header.num_vertices = g.NumVertices();
  header.num_labels = g.NumLabels();
  header.adjacency_size = adjacency.size();
  header.num_pairs = pairs.size();
  header.max_degree = g.MaxDegree();
  header.source_graph_size = source.size_bytes;
  header.source_graph_mtime_ns = source.mtime_ns;
  header.base_changelog_seq = base_changelog_seq;
  header.payload_checksum = 0;  // patched after the payload is written

  FileSink out;
  if (!out.Open(path)) return IoFail(error, "cannot open " + path + " for writing");

  SnapshotWriter writer(out);
  writer.WriteRaw(&header, sizeof(header));
  writer.WriteSection(offsets);
  writer.WriteSection(adjacency);
  writer.WriteSection(labels);
  writer.WriteSection(label_offsets);
  writer.WriteSection(label_members);
  writer.WriteSection(coreness);
  writer.WriteSection(max_core);

  std::vector<SnapshotPairEntry> entries;
  entries.reserve(pairs.size());
  for (const auto& [a, b, counts] : pairs) {
    SnapshotPairEntry e = {};
    e.label_a = a;
    e.label_b = b;
    e.chi_len = g.VerticesWithLabel(a).size() + g.VerticesWithLabel(b).size();
    e.total = counts->total;
    e.max_left = counts->max_left;
    e.max_right = counts->max_right;
    e.argmax_left = counts->argmax_left;
    e.argmax_right = counts->argmax_right;
    entries.push_back(e);
  }
  writer.WriteSection(std::span<const SnapshotPairEntry>(entries));

  // Pair chi arrays, compacted over the two label groups (a's members, then
  // b's) instead of the dense n-sized vector they occupy in memory. They sit
  // back to back after one aligned section start — the loader walks them by
  // the chi_len fields of the pair table.
  writer.PadTo(Align(writer.offset()));
  std::vector<std::uint64_t> compact;
  for (const auto& [a, b, counts] : pairs) {
    compact.clear();
    for (VertexId v : g.VerticesWithLabel(a)) compact.push_back(counts->chi[v]);
    for (VertexId v : g.VerticesWithLabel(b)) compact.push_back(counts->chi[v]);
    writer.WriteArray(std::span<const std::uint64_t>(compact));
  }

  header.payload_checksum = writer.Checksum();
  const bool patched = out.WriteAt(offsetof(SnapshotHeader, payload_checksum),
                                   &header.payload_checksum,
                                   sizeof(header.payload_checksum));
  if (!writer.ok() || !patched || !out.Close()) {
    std::remove(path.c_str());
    return IoFail(error, "write failed for " + path);
  }
  return true;
}

std::optional<SnapshotBundle> LoadSnapshot(const std::string& path, std::string* error,
                                           const SnapshotLoadOptions& opts) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  std::shared_ptr<MappedFile> file = OpenSnapshotFile(path, opts.allow_mmap, error);
  if (file == nullptr) return std::nullopt;
  if (file->size < sizeof(SnapshotHeader)) {
    return fail("truncated snapshot: " + std::to_string(file->size) +
                " bytes is smaller than the " + std::to_string(sizeof(SnapshotHeader)) +
                "-byte header");
  }

  SnapshotHeader header;
  std::memcpy(&header, file->data, sizeof(header));
  if (std::memcmp(header.magic, kMagicBytes, sizeof(header.magic)) != 0) {
    return fail("bad magic: not a bccs snapshot");
  }
  if (header.endian != kEndianTag) return fail("endianness mismatch");
  if (header.version != kSnapshotFormatVersion) {
    return fail("unsupported snapshot version " + std::to_string(header.version) +
                " (expected " + std::to_string(kSnapshotFormatVersion) + ")");
  }
  const std::uint64_t n = header.num_vertices;
  const std::uint64_t num_labels = header.num_labels;
  // Every array element is at least one byte, so a header whose counts
  // exceed the file size is corrupt; rejecting here also keeps the layout
  // arithmetic below far away from 64-bit overflow.
  if (n > file->size || num_labels > file->size || header.adjacency_size > file->size ||
      header.num_pairs > file->size) {
    return fail("corrupt snapshot: header sizes exceed the file size");
  }
  const Layout layout = ComputeLayout(n, num_labels, header.adjacency_size, header.num_pairs);
  if (file->size < layout.chi) {
    return fail("truncated snapshot: sections need " + std::to_string(layout.chi) +
                " bytes, file has " + std::to_string(file->size));
  }

  const auto pair_entries =
      SectionView<SnapshotPairEntry>(*file, layout.pairs, header.num_pairs);
  // Bound every chi_len BEFORE trusting the sum: the per-pair SectionViews
  // below read chi_len*8 bytes each, so an attacker-chosen huge chi_len must
  // not be able to wrap the 64-bit sum back onto the real file size and
  // sneak past the expected-size check. Capping the running total at the
  // words actually present after layout.chi keeps the sum (and the
  // expected_size product) overflow-free and every per-pair view in bounds.
  const std::uint64_t chi_capacity =
      (file->size - layout.chi) / sizeof(std::uint64_t);
  std::uint64_t chi_total = 0;
  for (const SnapshotPairEntry& e : pair_entries) {
    if (e.chi_len > chi_capacity - chi_total) {
      return fail("truncated or corrupt snapshot: pair chi lengths exceed the file size");
    }
    chi_total += e.chi_len;
  }
  const std::size_t expected_size = layout.chi + chi_total * sizeof(std::uint64_t);
  if (file->size < expected_size) {
    return fail("truncated snapshot: expected " + std::to_string(expected_size) +
                " bytes, file has " + std::to_string(file->size));
  }

  // The file is exactly header + payload. Trailing bytes are most likely
  // the in-file delta log older versions appended here; it is no longer
  // read, and silently dropping it would serve a state older than the one
  // its writer acknowledged.
  if (file->size > expected_size) {
    return fail("unexpected " + std::to_string(file->size - expected_size) +
                " bytes after the snapshot payload: the in-file delta log of older "
                "versions is no longer supported (fold it with that version's "
                "bccs_update --compact, or rebuild with bccs_build)");
  }

  ChangelogReplay clog;
  if (opts.replay_changelog && !ScanChangelog(path, header.base_changelog_seq, &clog, error)) {
    return std::nullopt;
  }
  const SourceGraphInfo effective =
      clog.has_stamp ? clog.effective
                     : SourceGraphInfo{header.source_graph_size, header.source_graph_mtime_ns};
  if (opts.expected_source.Known() && effective.Known() &&
      !(effective == opts.expected_source)) {
    return fail("stale snapshot: the effective source graph (" +
                std::to_string(effective.size_bytes) + " bytes, mtime " +
                std::to_string(effective.mtime_ns) + "ns) does not match the graph file (" +
                std::to_string(opts.expected_source.size_bytes) + " bytes, mtime " +
                std::to_string(opts.expected_source.mtime_ns) + "ns)");
  }

  if (opts.verify_checksum) {
    Fnv1a64 checksum;
    checksum.Update(file->data + sizeof(SnapshotHeader), expected_size - sizeof(SnapshotHeader));
    if (checksum.Digest() != header.payload_checksum) return fail("checksum mismatch");
  }

  // Full structural validation: the checksum only catches accidental
  // corruption (FNV is not cryptographic, and verify_checksum can be turned
  // off), so every value later used as an array index or span bound must be
  // range-checked here — one linear pass per array — before anything
  // dereferences the mapping.
  const auto offsets = SectionView<std::uint64_t>(*file, layout.offsets, n + 1);
  const auto adjacency = SectionView<VertexId>(*file, layout.adjacency, header.adjacency_size);
  const auto labels = SectionView<Label>(*file, layout.labels, n);
  const auto label_offsets =
      SectionView<std::uint64_t>(*file, layout.label_offsets, num_labels + 1);
  const auto label_members = SectionView<VertexId>(*file, layout.label_members, n);
  if (offsets[0] != 0 || offsets[n] != header.adjacency_size || label_offsets[0] != 0 ||
      label_offsets[num_labels] != n) {
    return fail("corrupt snapshot: CSR bounds are inconsistent");
  }
  std::uint64_t max_degree = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) return fail("corrupt snapshot: offsets not monotonic");
    max_degree = std::max(max_degree, offsets[v + 1] - offsets[v]);
  }
  // max_degree is the one header field no size check constrains; cross-check
  // it against the offsets so header corruption cannot propagate silently.
  if (max_degree != header.max_degree) return fail("corrupt snapshot: max degree mismatch");
  for (std::uint64_t l = 0; l < num_labels; ++l) {
    if (label_offsets[l] > label_offsets[l + 1]) {
      return fail("corrupt snapshot: label offsets not monotonic");
    }
  }
  // The kernels rely on adjacency lists being strictly sorted (linear-merge
  // intersections, binary-search HasEdge) and on label groups being strictly
  // ascending lists of exactly the vertices carrying that label; a file
  // violating those invariants would silently return wrong communities, so
  // it is rejected like any other corruption.
  for (std::uint64_t v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (adjacency[i] >= n) return fail("corrupt snapshot: adjacency entry out of range");
      if (i > offsets[v] && adjacency[i - 1] >= adjacency[i]) {
        return fail("corrupt snapshot: adjacency list not sorted");
      }
    }
  }
  for (Label l : labels) {
    if (l >= num_labels) return fail("corrupt snapshot: label out of range");
  }
  for (std::uint64_t l = 0; l < num_labels; ++l) {
    for (std::uint64_t i = label_offsets[l]; i < label_offsets[l + 1]; ++i) {
      const VertexId v = label_members[i];
      if (v >= n) return fail("corrupt snapshot: label member out of range");
      if (labels[v] != l) return fail("corrupt snapshot: label member in wrong group");
      if (i > label_offsets[l] && label_members[i - 1] >= v) {
        return fail("corrupt snapshot: label group not sorted");
      }
    }
  }

  SnapshotBundle bundle;
  bundle.loaded_from_snapshot = true;
  bundle.mapped = file->mapped;
  bundle.snapshot_bytes = file->size;
  bundle.base_changelog_seq = header.base_changelog_seq;
  bundle.changelog_segments = clog.segments;
  bundle.changelog_torn_bytes = clog.torn_tail_bytes;
  bundle.graph = SnapshotAccess::MakeGraph(offsets, adjacency, labels, label_offsets,
                                           label_members, header.max_degree, file);

  // The pair cache: scatter each compact chi array back over the two label
  // groups. This is the only copied data; everything else stays mapped.
  std::map<std::pair<Label, Label>, ButterflyCounts> pairs;
  std::size_t chi_offset = layout.chi;
  for (const SnapshotPairEntry& e : pair_entries) {
    if (e.label_a >= num_labels || e.label_b >= num_labels || e.label_a >= e.label_b) {
      return fail("corrupt snapshot: invalid pair labels");
    }
    const auto left = bundle.graph->VerticesWithLabel(e.label_a);
    const auto right = bundle.graph->VerticesWithLabel(e.label_b);
    if (e.chi_len != left.size() + right.size()) {
      return fail("corrupt snapshot: pair chi length does not match label groups");
    }
    // The argmax fields index chi (and flow into leader selection), so they
    // must be members of their side's label group or the no-vertex sentinel.
    const auto in_group = [](std::span<const VertexId> group, VertexId v) {
      return v == kInvalidVertex || std::binary_search(group.begin(), group.end(), v);
    };
    if (!in_group(left, e.argmax_left) || !in_group(right, e.argmax_right)) {
      return fail("corrupt snapshot: pair argmax outside its label group");
    }
    const auto compact = SectionView<std::uint64_t>(*file, chi_offset, e.chi_len);
    chi_offset += e.chi_len * sizeof(std::uint64_t);
    ButterflyCounts counts;
    counts.chi.assign(n, 0);
    std::size_t i = 0;
    for (VertexId v : left) counts.chi[v] = compact[i++];
    for (VertexId v : right) counts.chi[v] = compact[i++];
    counts.total = e.total;
    counts.max_left = e.max_left;
    counts.max_right = e.max_right;
    counts.argmax_left = e.argmax_left;
    counts.argmax_right = e.argmax_right;
    pairs.emplace(std::make_pair(e.label_a, e.label_b), std::move(counts));
  }

  bundle.index = SnapshotAccess::MakeIndex(
      bundle.graph.get(), SectionView<std::uint32_t>(*file, layout.coreness, n),
      SectionView<std::uint32_t>(*file, layout.max_core, num_labels), std::move(pairs));

  // Replay the changelog onto the mapped state through the dynamic-graph
  // layer. The updated graph shares the mapped label arrays (and keeps the
  // mapping alive); the index repair touches only the affected labels and
  // cached pairs.
  if (!clog.updates.empty()) {
    std::string delta_err;
    const auto delta = BuildGraphDelta(*bundle.graph, clog.updates, &delta_err);
    if (!delta) {
      return fail("snapshot changelog does not apply to the stored graph: " + delta_err);
    }
    auto updated = std::make_shared<const LabeledGraph>(ApplyGraphDelta(*bundle.graph, *delta));
    auto repaired = bundle.index->ApplyUpdates(*updated, *delta);
    bundle.index = std::move(repaired);
    bundle.graph = std::move(updated);
    bundle.replayed_updates = clog.updates.size();
  }
  return bundle;
}

SnapshotBundle BuildSnapshotBundle(const LabeledGraph& g, const std::string& path,
                                   std::string* error, const SourceGraphInfo& source) {
  SnapshotBundle out;
  out.graph = std::make_shared<const LabeledGraph>(g);  // shares the CSR arrays
  out.index = std::make_unique<BcIndex>(*out.graph);
  out.index->MaterializeAllPairs();
  std::string save_err;
  if (SaveSnapshot(*out.index, path, &save_err, source)) {
    if (error != nullptr) error->clear();
    // A fresh base makes any leftover changelog segments stale garbage: the
    // text graph is authoritative here, and replaying old segments onto the
    // new payload would corrupt it. A failed cleanup leaves that hazard on
    // disk, so it is reported like a failed save (the in-memory bundle is
    // still good; the on-disk snapshot must not be trusted).
    std::string clear_err;
    if (!RemoveChangelogSegments(path, &clear_err) && error != nullptr) {
      *error = "stale changelog cleanup failed: " + clear_err;
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec) out.snapshot_bytes = static_cast<std::size_t>(size);
  } else if (error != nullptr) {
    *error = "save failed: " + save_err;
  }
  return out;
}

SnapshotBundle BcIndex::BuildOrLoad(const LabeledGraph& g, const std::string& path,
                                    std::string* error) {
  return BuildOrLoad(g, path, error, SourceGraphInfo{});
}

SnapshotBundle BcIndex::BuildOrLoad(const LabeledGraph& g, const std::string& path,
                                    std::string* error, const SourceGraphInfo& source) {
  std::string load_err;
  SnapshotLoadOptions opts;
  opts.expected_source = source;
  if (auto bundle = LoadSnapshot(path, &load_err, opts)) {
    if (error != nullptr) error->clear();
    return std::move(*bundle);
  }

  std::string build_err;
  SnapshotBundle out = BuildSnapshotBundle(g, path, &build_err, source);
  if (!build_err.empty()) {
    if (!load_err.empty()) load_err += "; ";
    load_err += build_err;
  }
  if (error != nullptr) *error = load_err;
  return out;
}

}  // namespace bccs
