// Fig. 23 / §6.1.6: effect of the transfer period on HB accuracy —
// down-sample each trace to 2x/8x/15x longer periods (the paper's 6, 24
// and 45 minutes against its 3-minute epochs) and compare RMSRE CDFs.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 23: HW-LSO RMSRE with sporadic transfers (longer periods)",
           "accuracy degrades gracefully: with a 45-min period, 65% of traces stay below "
           "RMSRE 0.4 and the 90th percentile stays below 1.0");

    const auto data = testbed::ensure_campaign1();

    const std::vector<std::pair<std::size_t, const char*>> periods{
        {1, "3 min (every epoch)"},
        {2, "6 min (every 2nd)"},
        {8, "24 min (every 8th)"},
        {15, "45 min (every 15th)"}};

    std::vector<std::pair<std::string, analysis::ecdf>> series;
    std::vector<analysis::rmsre_headline> headlines;
    for (const auto& [factor, label] : periods) {
        analysis::engine_options opts;
        opts.downsample = factor;
        const auto rmsres =
            analysis::evaluation_engine{opts}.run_one(data, "0.8-HW-LSO").trace_rmsres();
        series.emplace_back(label, analysis::ecdf(rmsres));
        headlines.push_back(analysis::rmsre_headline_of(rmsres));
    }

    const auto grid = rmsre_grid();
    print_cdf_table(series, grid, "RMSRE ->");

    std::printf("\nheadline:\n");
    for (std::size_t i = 0; i < series.size(); ++i) {
        std::printf("  %-22s P(RMSRE<0.4) = %.0f%%, 90th percentile = %.2f\n",
                    series[i].first.c_str(), 100.0 * headlines[i].below_04,
                    headlines[i].p90);
    }
    return 0;
}
