// Fig. 13 / §4.2.9: FB error CDF with the revised (full) PFTK model versus
// the original Eq. 2 approximation — plus the square-root model as an extra
// ablation series.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 13: FB error CDF with the revised PFTK formula",
           "the difference between the original and the revised PFTK predictors is "
           "negligible compared to the overall FB errors");

    const auto data = testbed::ensure_campaign1();

    const auto results =
        run_predictors(data, {"fb:pftk", "fb:pftk-full", "fb:sqrt"});
    const auto original = results[0].epoch_errors();
    const auto revised = results[1].epoch_errors();
    const auto sqrt_model = results[2].epoch_errors();

    const auto grid = error_grid();
    const std::vector<std::pair<std::string, analysis::ecdf>> series{
        {"PFTK (Eq. 2)", analysis::ecdf(original)},
        {"revised PFTK (full)", analysis::ecdf(revised)},
        {"square-root (Eq. 1)", analysis::ecdf(sqrt_model)},
    };
    print_cdf_table(series, grid, "E ->");

    std::printf("\nheadline: median E original %.2f vs revised %.2f vs square-root %.2f\n",
                analysis::median(original), analysis::median(revised),
                analysis::median(sqrt_model));
    std::printf("  |E|>=1: original %.0f%%, revised %.0f%% (paper: negligible difference)\n",
                100.0 * analysis::share(original, [](double e) { return std::abs(e) >= 1; }),
                100.0 * analysis::share(revised, [](double e) { return std::abs(e) >= 1; }));
    return 0;
}
