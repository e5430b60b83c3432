// Table 4 of the paper (Exp-5): Online-BCC vs LP-BCC on the DBLP-like
// network — query distance calculation time, leader pair update time, number
// of butterfly-counting (Algorithm 3) calls, and total time, with speedups.

#include <cstdio>

#include "bench_common.h"
#include "eval/timer.h"

int main() {
  constexpr std::size_t kQueries = 40;
  const auto* spec = bccs::FindSpec("dblp");
  bccs::QueryGenConfig qcfg;
  qcfg.seed = 29;
  auto ds = bccs::bench::Prepare(*spec, kQueries, qcfg);

  bccs::SearchStats online, lp;
  double online_total = 0, lp_total = 0;
  for (const auto& gq : ds.queries) {
    bccs::Timer t1;
    bccs::OnlineBcc(ds.planted.graph, gq.query, bccs::BccParams{}, &online);
    online_total += t1.Seconds();
    bccs::Timer t2;
    bccs::LpBcc(ds.planted.graph, gq.query, bccs::BccParams{}, &lp);
    lp_total += t2.Seconds();
  }

  auto speedup = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::printf("== Table 4: Online-BCC vs LP-BCC on %s (%zu queries) ==\n", spec->name.c_str(),
              ds.queries.size());
  std::printf("%-28s %12s %12s %10s\n", "step", "Online-BCC", "LP-BCC", "speedup");
  std::printf("%-28s %12.4f %12.4f %9.1fx\n", "Query distance calculation",
              online.query_distance_seconds, lp.query_distance_seconds,
              speedup(online.query_distance_seconds, lp.query_distance_seconds));
  std::printf("%-28s %12.4f %12.4f %9.1fx\n", "Leader pair update (Alg 3 time)",
              online.butterfly_seconds, lp.butterfly_seconds + lp.leader_update_seconds,
              speedup(online.butterfly_seconds,
                      lp.butterfly_seconds + lp.leader_update_seconds));
  // Online-BCC's exact checks: the rounds its delta counter serves plus its
  // full counts, i.e. the Algorithm 3 calls the paper's per-round recount
  // pays.
  const std::size_t online_checks = online.delta_rounds + online.butterfly_counting_calls;
  std::printf("%-28s %12zu %12zu %9.1fx\n", "#butterfly counting", online_checks,
              lp.butterfly_counting_calls,
              speedup(static_cast<double>(online_checks),
                      static_cast<double>(lp.butterfly_counting_calls)));
  std::printf("%-28s %12.4f %12.4f %9.1fx\n", "Total time", online_total, lp_total,
              speedup(online_total, lp_total));
  std::printf("\nExpected shape (paper Table 4): ~2x on query distance, order-of-\n"
              "magnitude fewer butterfly-counting calls, ~3x total speedup.\n");
  return 0;
}
