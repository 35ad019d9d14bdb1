// Fig. 16 / §6.1.1: CDF over traces of the Moving Average predictors'
// RMSRE, with and without LSO.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 16: per-trace RMSRE CDF for Moving Average predictors",
           "n-MA for n < 20 behave almost identically without LSO (1-MA worst); LSO "
           "significantly reduces the RMSRE and flattens the dependence on n");

    const auto data = testbed::ensure_campaign1();

    const auto results = run_predictors(
        data, {"1-MA", "5-MA", "10-MA", "20-MA", "5-MA-LSO", "10-MA-LSO", "20-MA-LSO"});
    const auto grid = rmsre_grid();
    print_cdf_table(rmsre_cdf_series(results), grid, "RMSRE ->");

    std::printf("\nheadline (median per-trace RMSRE):\n");
    for (const auto& r : results) {
        std::printf("  %-12s %.3f\n", r.name.c_str(),
                    analysis::rmsre_headline_of(r.trace_rmsres()).median);
    }
    return 0;
}
