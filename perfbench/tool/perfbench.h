// Shared pieces of perfbench_tool, the C++ half of the socket-level BCC
// search benchmark (see perfbench/README.md). The tool has four
// subcommands, one per file:
//
//   gen     workloads.cc  seeded graph + request stream for one workload
//   load    loadgen.cc    drives a running `bccs_serve --listen` over TCP
//   oracle  oracle.cc     recomputes every served answer in-process
//   trace   trace.cc      traced in-process replay, per-layer metrics
//
// Every subcommand reads and writes plain files inside one work directory,
// so run.py can hand the same inputs to the server, the load generator and
// the oracle.
#ifndef PERFBENCH_TOOL_PERFBENCH_H_
#define PERFBENCH_TOOL_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bcc/bcc_types.h"
#include "graph/graph_delta.h"
#include "graph/labeled_graph.h"
#include "net/line_protocol.h"
#include "tools/arg_parser.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: a tiny seeded generator whose output is fixed by the
/// algorithm alone, so a seed gives byte-identical inputs on any platform
/// (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// One line of a workload's request stream (requests.txt, one wire line
/// per line, in send order), parsed with the server's own ParseNetRequest.
struct Request {
  std::string line;  // "q <ql> <qr> id=<N>" or "u <+|-> <a> <b> id=<N>"
  bccs::NetRequest parsed;
  bool is_update() const { return parsed.kind == bccs::NetRequestKind::kUpdate; }
  bccs::BccQuery query() const { return {parsed.ql, parsed.qr}; }
};

/// Reads and parses requests.txt; every line must be a query or an update
/// with an id.
bool ReadRequests(const std::string& path, std::vector<Request>* out, std::string* error);

/// One sent request as the load generator logged it (responses.tsv).
struct LogRecord {
  std::size_t index = 0;  // position in requests.txt
  bool is_update = false;
  std::string status;     // ok | rej | err | miss
  // Relative to the start of the run; due is when the connection became
  // free, so send - due is the generator's own delay.
  std::int64_t due_ns = 0, send_ns = 0, recv_ns = 0;
  std::uint64_t epoch = 0;
  std::uint64_t size = 0;  // n= of a query answer
  std::uint64_t hash = 0;  // h= of a query answer
};

bool ReadLog(const std::string& path, std::vector<LogRecord>* out, std::string* error);

/// Parses "ok <id> q epoch=E n=M h=HEX" / "ok <id> u epoch=E ..." /
/// "rej <id> ..." / "err <id> ...". Returns false on anything else.
bool ParseResponse(const std::string& line, std::uint64_t* id, LogRecord* rec);

/// The query parameters every workload serves with: automatic k, b = 1
/// (the paper's Section 8 default).
inline bccs::BccParams DefaultParams() { return bccs::BccParams{0, 0, 1}; }

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty vector.
double Quantile(std::vector<double> v, double q);

/// Answer oracle (oracle.cc). Checks query answers (ql, qr) -> (size, hash)
/// served at `epoch` against an in-process recomputation at that epoch.
/// `method` is "lp" (LpBcc) or "l2p" (L2pBcc over a BcIndex). Epoch E is the
/// text graph after the first E-1 entries of `updates` (each one applied
/// single-edge batch, in admission order), rebuilt through BuildGraphDelta
/// -> ApplyGraphDelta -> BcIndex::ApplyUpdates; the traced run's probes
/// serve updates, the socket runs do not. Every non-empty recomputed answer
/// is also checked with VerifyBcc.
struct OracleItem {
  bccs::BccQuery query;
  std::uint64_t epoch = 1;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
};
struct OracleResult {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::size_t invalid = 0;  // VerifyBcc rejected a recomputed answer
  std::string first_problem;
};
OracleResult RunOracle(const std::string& graph_path, const std::string& method,
                       const std::vector<bccs::EdgeUpdate>& updates,
                       const std::vector<OracleItem>& items, int threads);

int GenMain(const bccs::ArgParser& args);
int LoadMain(const bccs::ArgParser& args);
int OracleMain(const bccs::ArgParser& args);
int TraceMain(const bccs::ArgParser& args);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_PERFBENCH_H_
