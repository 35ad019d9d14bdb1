// Fig. 14 / §4.2.10: FB prediction with MA(10)-smoothed RTT and loss-rate
// inputs versus the raw most-recent measurements.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 14: FB error CDF with history-smoothed RTT/loss inputs",
           "smoothing p-hat and T-hat with a 10-sample moving average changes almost "
           "nothing: input measurement noise is not a significant FB error source");

    const auto data = testbed::ensure_campaign1();

    analysis::engine_options smoothed;
    smoothed.smooth_inputs = true;

    const auto raw_err =
        analysis::evaluation_engine{}.run_one(data, "fb:pftk").epoch_errors();
    const auto smooth_err =
        analysis::evaluation_engine{smoothed}.run_one(data, "fb:pftk").epoch_errors();

    const auto grid = error_grid();
    const std::vector<std::pair<std::string, analysis::ecdf>> series{
        {"raw (latest) inputs", analysis::ecdf(raw_err)},
        {"MA(10)-smoothed inputs", analysis::ecdf(smooth_err)},
    };
    print_cdf_table(series, grid, "E ->");

    std::printf("\nheadline: median E raw %.2f vs smoothed %.2f; |E|>=1 raw %.0f%% vs "
                "smoothed %.0f%% (paper: the two CDFs nearly coincide)\n",
                analysis::median(raw_err), analysis::median(smooth_err),
                100.0 * analysis::share(raw_err, [](double e) { return std::abs(e) >= 1; }),
                100.0 * analysis::share(smooth_err, [](double e) { return std::abs(e) >= 1; }));
    return 0;
}
