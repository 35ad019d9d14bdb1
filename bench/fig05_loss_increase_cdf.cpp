// Fig. 5: CDF of the relative loss-rate increase (p-tilde - p-hat)/p-tilde
// during the target flow, over epochs that were lossy before the transfer.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 5: CDF of relative loss-rate increase during the target flow (lossy epochs)",
           "more than 70% of lossy epochs see a relative increase above 1.25/2.25 = 0.55 "
           "(i.e. p-tilde > 2.25 p-hat), contributing >50% to the prediction error");

    const auto data = testbed::ensure_campaign1();
    std::vector<double> rel;
    for (const auto& r : data.records) {
        if (r.m.phat > 0 && r.m.ptilde > 0) {
            rel.push_back((r.m.ptilde - r.m.phat) / r.m.ptilde);
        }
    }

    const std::vector<double> grid{-1.0, -0.5, -0.2, 0, 0.2, 0.4, 0.55, 0.7, 0.85, 0.95};
    const std::vector<std::pair<std::string, analysis::ecdf>> series{
        {"relative loss increase", analysis::ecdf(rel)}};
    print_cdf_table(series, grid, "(p~ - p^)/p~ ->");

    std::printf("\nheadline: n=%zu lossy epochs\n", rel.size());
    std::printf("  fraction with p-tilde > 2.25 p-hat: %.0f%% (paper >70%%)\n",
                100.0 * analysis::share(rel, [](double x) { return x > 1.25 / 2.25; }));
    return 0;
}
