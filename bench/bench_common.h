#ifndef BCCS_BENCH_BENCH_COMMON_H_
#define BCCS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ctc.h"
#include "baselines/psa.h"
#include "bcc/local_search.h"
#include "bcc/online_search.h"
#include "eval/batch_runner.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"

namespace bccs::bench {

/// The five methods of the paper's quality/efficiency experiments.
enum class Method { kPsa, kCtc, kOnlineBcc, kLpBcc, kL2pBcc };

inline const char* Name(Method m) {
  switch (m) {
    case Method::kPsa: return "PSA";
    case Method::kCtc: return "CTC";
    case Method::kOnlineBcc: return "Online-BCC";
    case Method::kLpBcc: return "LP-BCC";
    case Method::kL2pBcc: return "L2P-BCC";
  }
  return "?";
}

inline const std::vector<Method>& AllMethods() {
  static const std::vector<Method>& methods = *new std::vector<Method>{
      Method::kPsa, Method::kCtc, Method::kOnlineBcc, Method::kLpBcc, Method::kL2pBcc};
  return methods;
}

inline const std::vector<Method>& BccMethods() {
  static const std::vector<Method>& methods = *new std::vector<Method>{
      Method::kOnlineBcc, Method::kLpBcc, Method::kL2pBcc};
  return methods;
}

/// A dataset with its per-graph indexes (built once, shared by queries; the
/// paper reports per-query search time with offline indexes in place).
struct PreparedDataset {
  std::string name;
  PlantedGraph planted;
  std::unique_ptr<CtcSearcher> ctc;
  std::unique_ptr<PsaSearcher> psa;
  std::unique_ptr<BcIndex> index;
  std::vector<GroundTruthQuery> queries;
};

/// Generates the dataset, builds the baseline indexes, samples ground-truth
/// queries.
PreparedDataset Prepare(const DatasetSpec& spec, std::size_t num_queries,
                        const QueryGenConfig& qcfg);

/// Aggregate over one method's runs.
struct MethodAggregate {
  double avg_seconds = 0;
  double avg_f1 = 0;
  std::size_t empty_results = 0;
  SearchStats stats;
};

/// Runs a method over the prepared queries with the given BCC parameters
/// (k1 = k2 = 0 means auto).
MethodAggregate RunMethod(PreparedDataset& ds, Method m, const BccParams& params);

/// Runs a method over externally supplied queries (the parameter-sweep
/// benches).
MethodAggregate RunMethodOnQueries(PreparedDataset& ds, Method m, const BccParams& params,
                                   const std::vector<GroundTruthQuery>& queries);

/// Runs a method's whole query set through the parallel BatchRunner (one
/// warm workspace per worker). Fills the same aggregate as RunMethod — the
/// per-query communities are identical to the sequential path — plus the
/// batch latency summary in `*batch` when non-null.
MethodAggregate RunMethodBatch(PreparedDataset& ds, Method m, const BccParams& params,
                               BatchRunner& runner, BatchResult* batch = nullptr);

/// Pretty-prints a case-study community grouped by label, with vertex names
/// (the Figure 11-13/15 "drawings" as text).
void PrintCommunityByLabel(const CaseStudy& cs, const Community& c, const char* title);

}  // namespace bccs::bench

#endif  // BCCS_BENCH_BENCH_COMMON_H_
