// Fig. 3 + §4.2.2: CDFs of the absolute RTT and loss-rate increase during
// the target flow, and the mean inflation factors feeding the error
// decomposition.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 3: CDF of absolute RTT and loss-rate increase during the target flow",
           "~50% of epochs: no significant RTT increase; ~40%: +5..60 ms; ~10%: >100 ms. "
           "Loss rate increases by 0.1-2% in almost all epochs. On average RTT inflates "
           "~1.3x and loss ~5x, explaining most of the FB overestimation (s4.2.2)");

    const auto data = testbed::ensure_campaign1();

    std::vector<double> rtt_inc_ms, loss_inc, rtt_ratio, loss_ratio;
    for (const auto& r : data.records) {
        rtt_inc_ms.push_back((r.m.ttilde_s - r.m.that_s) * 1e3);
        loss_inc.push_back(r.m.ptilde - r.m.phat);
        if (r.m.that_s > 0) rtt_ratio.push_back(r.m.ttilde_s / r.m.that_s);
        if (r.m.phat > 0) loss_ratio.push_back(r.m.ptilde / r.m.phat);
    }

    const std::vector<double> ms_grid{-5, 0, 1, 2, 5, 10, 20, 60, 100, 200};
    const std::vector<std::pair<std::string, analysis::ecdf>> rtt_series{
        {"RTT increase (ms)", analysis::ecdf(rtt_inc_ms)}};
    print_cdf_table(rtt_series, ms_grid, "T-tilde - T-hat (ms) ->");

    const std::vector<double> p_grid{-0.005, 0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05};
    const std::vector<std::pair<std::string, analysis::ecdf>> loss_series{
        {"loss-rate increase", analysis::ecdf(loss_inc)}};
    std::printf("\n");
    print_cdf_table(loss_series, p_grid, "p-tilde - p-hat ->");

    std::printf("\nheadline (s4.2.2):\n");
    std::printf("  mean RTT inflation during flow:   x%.2f   (paper: ~x1.3)\n",
                analysis::mean(rtt_ratio));
    std::printf("  mean loss inflation (lossy only): x%.2f   (paper: ~x5)\n",
                analysis::mean(loss_ratio));
    std::printf("  epochs with loss increase > 0:    %.0f%%  (paper: almost all)\n",
                100.0 * analysis::share(loss_inc, [](double x) { return x > 1e-6; }));
    return 0;
}
