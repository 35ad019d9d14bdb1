// Fig. 18 / §6.1.1: sensitivity of the LSO heuristics to their parameters
// (gamma = level-shift threshold chi, psi = outlier threshold), shown as
// the CDF of |E| for 5-MA-LSO under a parameter grid.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 18: 5-MA-LSO under different chi (gamma) and psi values",
           "the LSO detection heuristics are not sensitive to chi and psi: the |E| CDFs "
           "nearly coincide for all tested combinations");

    const auto data = testbed::ensure_campaign1();

    const std::vector<std::pair<double, double>> params{
        {0.2, 0.3}, {0.3, 0.4}, {0.4, 0.5}, {0.3, 0.6}, {0.5, 0.4}};

    const std::vector<double> grid{0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2.0};
    std::vector<std::pair<std::string, analysis::ecdf>> series;
    for (const auto& [gamma, psi] : params) {
        analysis::engine_options opts;
        opts.predictor.lso = core::lso_config{gamma, psi};
        const auto result = analysis::evaluation_engine{opts}.run_one(data, "5-MA-LSO");
        std::vector<double> abs_errors;
        for (const double e : result.epoch_errors()) abs_errors.push_back(std::abs(e));
        char label[48];
        std::snprintf(label, sizeof label, "chi=%.1f psi=%.1f", gamma, psi);
        series.emplace_back(label, analysis::ecdf(abs_errors));
    }
    print_cdf_table(series, grid, "|E| ->");

    std::printf("\nheadline: median |E| spread across the parameter grid: %.3f .. %.3f "
                "(paper: curves nearly coincide)\n",
                [&] {
                    double lo = 1e9;
                    for (const auto& [n, c] : series) lo = std::min(lo, c.quantile(0.5));
                    return lo;
                }(),
                [&] {
                    double hi = 0;
                    for (const auto& [n, c] : series) hi = std::max(hi, c.quantile(0.5));
                    return hi;
                }());
    return 0;
}
