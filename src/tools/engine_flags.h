#ifndef BCCS_TOOLS_ENGINE_FLAGS_H_
#define BCCS_TOOLS_ENGINE_FLAGS_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eval/serve_engine.h"
#include "tools/arg_parser.h"

namespace bccs {

/// The serving-engine flags that bccs_query and bccs_serve share, parsed in
/// one place under one strict contract: every numeric value must be a clean
/// decimal integer in its range — a sign, a fraction, trailing garbage or a
/// value that does not fit the field it configures is an invocation error
/// with a reason, never a silent fallback or narrowing.
///
///   --method online|lp|l2p         two-label search method (default lp)
///   --k1 N --k2 N                  core parameters, 0 = auto (< 2^32)
///   --b N                          butterfly degree threshold (> 0)
///   --deadline-ms N                per-query deadline (> 0); an expired
///                                  query returns its best valid partial
///                                  answer flagged timed_out
///   --approx-samples N             sampled validity check on candidates
///                                  above the threshold: clamp(alive / 4,
///                                  64, N) pairs per estimate, exact
///                                  re-check of the final answer
///   --approx-threshold N           candidate size where sampling starts
///                                  (default 4096)
///   --cache-bytes N                pair-butterfly block budget (0 = none)
struct EngineFlags {
  QueryMethod method = QueryMethod::kLpBcc;
  BccParams params;
  double deadline_seconds = 0;  // 0 = none
  ApproxOptions approx;
  std::size_t pair_cache_bytes = 0;

  /// A two-label request carrying the method, deadline and parameters.
  QueryRequest Prototype() const;
  /// Copies the approx settings into every method's search options and the
  /// pair-cache budget into `opts`.
  void ApplyTo(ServeOptions* opts) const;
};

/// `tool_flags` plus the name of every engine flag: the known-flag list a
/// tool hands to ArgParser::UnknownFlags.
std::vector<std::string> WithEngineFlags(std::initializer_list<std::string> tool_flags);

/// Usage synopsis of the engine flags, for the tools' usage text.
extern const char kEngineFlagsUsage[];

/// Parses the engine flags in `args`. On an invalid value returns false with
/// the reason in *error. Warns on stderr about --approx-threshold given
/// without --approx-samples (it has no effect).
bool ParseEngineFlags(const ArgParser& args, EngineFlags* out, std::string* error);

/// One vertex id: a clean decimal integer below kInvalidVertex. Checking it
/// against a graph's vertex count is the caller's job.
bool ParseVertexId(std::string_view text, VertexId* out);

/// Comma-separated vertex ids (empty fields skipped). On a bad id returns
/// false with the reason in *error.
bool ParseVertexIdList(std::string_view csv, std::vector<VertexId>* out, std::string* error);

/// A lane name: interactive (or i) or bulk (or b).
bool ParseLane(std::string_view text, Lane* lane);

/// Prints the per-phase time breakdown and counting counters summed over
/// `stats`, as one "phases: ..." line on stdout.
void PrintPhases(std::span<const SearchStats> stats);

}  // namespace bccs

#endif  // BCCS_TOOLS_ENGINE_FLAGS_H_
