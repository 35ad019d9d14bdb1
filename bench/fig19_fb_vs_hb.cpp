// Fig. 19 / §6.1.2: per-trace RMSRE CDF of the FB predictor, compared with
// the HB predictors — when history exists, HB is dramatically better.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 19: per-trace RMSRE CDF for FB (vs HB)",
           "HB reaches RMSRE < 0.4 on ~90% of traces; the FB predictor's 90th-percentile "
           "RMSRE is ~20 and its median ~2 — an order of magnitude worse");

    const auto data = testbed::ensure_campaign1();

    // One streaming pass feeds the FB predictor and both HB predictors.
    const auto results = run_predictors(data, {"fb:pftk", "10-MA-LSO", "0.8-HW-LSO"});

    // The FB row keeps its figure label; the HB rows carry their specs.
    auto series = rmsre_cdf_series(results);
    series[0].first = "FB (Eq. 3)";

    const std::vector<double> grid{0.1, 0.2, 0.4, 0.6, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0};
    print_cdf_table(series, grid, "RMSRE ->");

    std::printf("\nheadline:\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto h = analysis::rmsre_headline_of(results[i].trace_rmsres());
        std::printf("  %-12s median RMSRE %.2f, 90th percentile %.2f, P(RMSRE<0.4) %.0f%%\n",
                    series[i].first.c_str(), h.median, h.p90, 100.0 * h.below_04);
    }
    return 0;
}
