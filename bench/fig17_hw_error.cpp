// Fig. 17 / §6.1.1: CDF over traces of the Holt-Winters predictors' RMSRE,
// with and without LSO (EWMA shown for comparison; the paper notes it
// behaves like HW).
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 17: per-trace RMSRE CDF for Holt-Winters predictors",
           "alpha = 0.8 is near-optimal; LSO significantly improves HW; HW-LSO is "
           "slightly better than MA-LSO overall; EWMA performs like HW");

    const auto data = testbed::ensure_campaign1();

    const auto results = run_predictors(
        data, {"0.2-HW", "0.5-HW", "0.8-HW", "0.2-HW-LSO", "0.5-HW-LSO", "0.8-HW-LSO",
               "0.8-EWMA", "10-MA-LSO"});
    const auto grid = rmsre_grid();
    print_cdf_table(rmsre_cdf_series(results), grid, "RMSRE ->");

    std::printf("\nheadline (median per-trace RMSRE):\n");
    for (const auto& r : results) {
        std::printf("  %-12s %.3f\n", r.name.c_str(),
                    analysis::rmsre_headline_of(r.trace_rmsres()).median);
    }
    return 0;
}
