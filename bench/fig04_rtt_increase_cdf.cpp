// Fig. 4: CDF of the relative RTT increase (T-tilde - T-hat)/T-tilde
// during the target flow.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 4: CDF of relative RTT increase during the target flow",
           "for only ~20% of epochs the relative RTT increase exceeds 0.5 "
           "(i.e. T-tilde > 1.5 T-hat), contributing >50% to the prediction error");

    const auto data = testbed::ensure_campaign1();
    std::vector<double> rel;
    for (const auto& r : data.records) {
        if (r.m.ttilde_s > 0) rel.push_back((r.m.ttilde_s - r.m.that_s) / r.m.ttilde_s);
    }

    const std::vector<double> grid{-0.2, -0.05, 0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9};
    const std::vector<std::pair<std::string, analysis::ecdf>> series{
        {"relative RTT increase", analysis::ecdf(rel)}};
    print_cdf_table(series, grid, "(T~ - T^)/T~ ->");

    std::printf("\nheadline: fraction with relative increase > 0.5: %.0f%% (paper ~20%%)\n",
                100.0 * analysis::share(rel, [](double x) { return x > 0.5; }));
    return 0;
}
