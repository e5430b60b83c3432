// perfbench_tool: the C++ half of the socket-level BCC search benchmark.
//
//   perfbench_tool gen    --workload NAME --seed N --dir DIR
//   perfbench_tool load   --port P --requests FILE --conns C --seconds S ...
//   perfbench_tool oracle --graph FILE --requests FILE --log FILE
//   perfbench_tool trace  --dir DIR --count N ...
//
// perfbench/run.py drives these; see perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

bool ReadRequests(const std::string& path, std::vector<Request>* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  Request r;
  while (std::getline(in, r.line)) {
    r.parsed = {};
    // Vertex bounds are the server's to check; the graph is not loaded here.
    std::string why;
    if (bccs::ParseNetRequest(r.line, SIZE_MAX, &r.parsed, &why) !=
            bccs::NetParseStatus::kOk ||
        (r.parsed.kind != bccs::NetRequestKind::kQuery && !r.is_update()) ||
        r.parsed.id == 0) {
      *error = "bad request '" + r.line + "' in " + path;
      if (!why.empty()) *error += ": " + why;
      return false;
    }
    out->push_back(r);
  }
  return true;
}

bool ReadLog(const std::string& path, std::vector<LogRecord>* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string text;
  while (std::getline(in, text)) {
    std::istringstream ls(text);
    LogRecord r;
    std::string kind, hash;
    if (!(ls >> r.index >> kind >> r.status >> r.due_ns >> r.send_ns >> r.recv_ns >>
          r.epoch >> r.size >> hash)) {
      *error = "malformed log line in " + path;
      return false;
    }
    r.is_update = kind == "u";
    r.hash = std::strtoull(hash.c_str(), nullptr, 16);
    out->push_back(r);
  }
  return true;
}

bool ParseResponse(const std::string& line, std::uint64_t* id, LogRecord* rec) {
  std::istringstream ls(line);
  std::string status, kind, token;
  if (!(ls >> status >> *id)) return false;
  if (status == "err") {
    rec->status = "err";
    return true;
  }
  if (status != "ok" && status != "rej") return false;
  rec->status = status;
  if (!(ls >> kind)) return false;
  while (ls >> token) {
    if (token.rfind("epoch=", 0) == 0) {
      rec->epoch = std::strtoull(token.c_str() + 6, nullptr, 10);
    } else if (token.rfind("n=", 0) == 0) {
      rec->size = std::strtoull(token.c_str() + 2, nullptr, 10);
    } else if (token.rfind("h=", 0) == 0) {
      rec->hash = std::strtoull(token.c_str() + 2, nullptr, 16);
    }
  }
  return true;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen|load|oracle|trace [--flag value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const bccs::ArgParser args = bccs::ArgParser::Parse(argc, argv);
  if (cmd == "gen") return perfbench::GenMain(args);
  if (cmd == "load") return perfbench::LoadMain(args);
  if (cmd == "oracle") return perfbench::OracleMain(args);
  if (cmd == "trace") return perfbench::TraceMain(args);
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
