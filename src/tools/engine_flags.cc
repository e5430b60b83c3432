#include "tools/engine_flags.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>

namespace bccs {
namespace {

// Each engine flag's name is spelled exactly once, here.
constexpr char kMethod[] = "method";
constexpr char kK1[] = "k1";
constexpr char kK2[] = "k2";
constexpr char kB[] = "b";
constexpr char kDeadlineMs[] = "deadline-ms";
constexpr char kApproxSamples[] = "approx-samples";
constexpr char kApproxThreshold[] = "approx-threshold";
constexpr char kCacheBytes[] = "cache-bytes";

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
/// One year: Deadline::After converts to steady_clock ticks, which a larger
/// millisecond count could overflow.
constexpr std::uint64_t kMaxDeadlineMs = 365ull * 24 * 3600 * 1000;

/// A clean decimal integer in [0, max]: no sign, whitespace, fraction or
/// trailing bytes, and no wrap-around on overflow.
bool ParseUint(std::string_view text, std::uint64_t max, std::uint64_t* out) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return false;
  *out = v;
  return true;
}

/// Leaves *value alone when the flag is absent; otherwise requires an
/// integer in [min, max] and explains the rejection in *error.
bool GetUint(const ArgParser& args, const char* name, std::uint64_t min, std::uint64_t max,
             std::uint64_t* value, std::string* error) {
  const auto text = args.GetString(name);
  if (!text) return true;
  std::uint64_t v = 0;
  if (!ParseUint(*text, max, &v) || v < min) {
    *error = std::string("--") + name + " must be an integer in [" + std::to_string(min) +
             ", " + std::to_string(max) + "], got '" + *text + "'";
    return false;
  }
  *value = v;
  return true;
}

}  // namespace

const char kEngineFlagsUsage[] =
    "                  [--method online|lp|l2p] [--k1 N] [--k2 N] [--b N]\n"
    "                  [--deadline-ms N] [--approx-samples N] [--approx-threshold N]\n"
    "                  [--cache-bytes N]\n";

std::vector<std::string> WithEngineFlags(std::initializer_list<std::string> tool_flags) {
  std::vector<std::string> known(tool_flags);
  known.insert(known.end(), {kMethod, kK1, kK2, kB, kDeadlineMs, kApproxSamples,
                             kApproxThreshold, kCacheBytes});
  return known;
}

bool ParseEngineFlags(const ArgParser& args, EngineFlags* out, std::string* error) {
  EngineFlags f;
  const std::string method = args.GetStringOr(kMethod, "lp");
  if (method == "online") {
    f.method = QueryMethod::kOnlineBcc;
  } else if (method == "lp") {
    f.method = QueryMethod::kLpBcc;
  } else if (method == "l2p") {
    f.method = QueryMethod::kL2pBcc;
  } else {
    *error = "unknown method '" + method + "' (valid methods: online, lp, l2p)";
    return false;
  }

  std::uint64_t k1 = 0, k2 = 0, b = 1, deadline_ms = 0, samples = 0, cache_bytes = 0;
  std::uint64_t threshold = f.approx.threshold;
  if (!GetUint(args, kK1, 0, kMaxU32, &k1, error) ||
      !GetUint(args, kK2, 0, kMaxU32, &k2, error) ||
      !GetUint(args, kB, 1, kMaxU64, &b, error) ||
      !GetUint(args, kDeadlineMs, 1, kMaxDeadlineMs, &deadline_ms, error) ||
      !GetUint(args, kApproxSamples, 1, kMaxU64, &samples, error) ||
      !GetUint(args, kApproxThreshold, 1, kMaxU64, &threshold, error) ||
      !GetUint(args, kCacheBytes, 0, kMaxU64, &cache_bytes, error)) {
    return false;
  }
  f.params = {static_cast<std::uint32_t>(k1), static_cast<std::uint32_t>(k2), b};
  f.deadline_seconds = static_cast<double>(deadline_ms) / 1000.0;
  if (samples > 0) {
    f.approx.enabled = true;
    f.approx.samples = samples;
    f.approx.threshold = threshold;
  } else if (args.Has(kApproxThreshold)) {
    std::fprintf(stderr,
                 "warning: --approx-threshold has no effect without --approx-samples; "
                 "approximate counting stays disabled\n");
  }
  f.pair_cache_bytes = cache_bytes;
  *out = f;
  return true;
}

QueryRequest EngineFlags::Prototype() const {
  QueryRequest req;
  req.method = method;
  req.deadline_seconds = deadline_seconds;
  req.params = params;
  return req;
}

void EngineFlags::ApplyTo(ServeOptions* opts) const {
  for (SearchOptions* s : {&opts->online, &opts->lp, &opts->mbcc, &opts->l2p.search}) {
    s->approx = approx;
  }
  opts->pair_cache_bytes = pair_cache_bytes;
}

bool ParseVertexId(std::string_view text, VertexId* out) {
  std::uint64_t v = 0;
  if (!ParseUint(text, kInvalidVertex - 1, &v)) return false;
  *out = static_cast<VertexId>(v);
  return true;
}

bool ParseVertexIdList(std::string_view csv, std::vector<VertexId>* out, std::string* error) {
  out->clear();
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',');
    const std::string_view field = csv.substr(0, comma);
    if (!field.empty()) {
      VertexId v = 0;
      if (!ParseVertexId(field, &v)) {
        *error = "'" + std::string(field) + "' is not a vertex id (an integer in [0, " +
                 std::to_string(kInvalidVertex - 1) + "])";
        return false;
      }
      out->push_back(v);
    }
    csv = comma == std::string_view::npos ? std::string_view() : csv.substr(comma + 1);
  }
  return true;
}

bool ParseLane(std::string_view text, Lane* lane) {
  if (text == "interactive" || text == "i") {
    *lane = Lane::kInteractive;
    return true;
  }
  if (text == "bulk" || text == "b") {
    *lane = Lane::kBulk;
    return true;
  }
  return false;
}

void PrintPhases(std::span<const SearchStats> stats) {
  SearchStats sum;
  for (const SearchStats& s : stats) sum += s;
  std::printf("phases: find_g0=%.4fs query_distance=%.4fs butterfly=%.4fs delta=%.4fs "
              "leader=%.4fs  (counting calls=%zu delta_rounds=%zu delta_fallbacks=%zu "
              "leader_rebuilds=%zu approx_checks=%zu)\n",
              sum.find_g0_seconds, sum.query_distance_seconds, sum.butterfly_seconds,
              sum.butterfly_delta_seconds, sum.leader_update_seconds,
              sum.butterfly_counting_calls, sum.delta_rounds, sum.delta_fallbacks,
              sum.leader_rebuilds, sum.approx_checks);
}

}  // namespace bccs
