// Fig. 8 / §4.2.4: relation between the actual throughput R of a transfer
// and the FB prediction error — large overestimation concentrates on
// low-throughput (congested) transfers.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 8: actual throughput R versus FB error E",
           "most large overestimation errors occur on transfers with very small "
           "throughput: 42% of samples with R <= 0.5 Mbps had E > 10, versus 0.2% for "
           "R >= 0.5 Mbps");

    const auto data = testbed::ensure_campaign1();
    const auto fb = analysis::evaluation_engine{}.run_one(data, "fb:pftk");

    struct bin {
        double lo, hi;
        std::vector<double> errors;
    };
    std::vector<bin> bins{{0, 0.25e6, {}},   {0.25e6, 0.5e6, {}}, {0.5e6, 1e6, {}},
                          {1e6, 2e6, {}},    {2e6, 4e6, {}},      {4e6, 8e6, {}},
                          {8e6, 1e12, {}}};
    std::vector<double> low_r, high_r;
    for (const auto& e : fb.all_epochs()) {
        for (auto& b : bins) {
            if (e.actual_bps >= b.lo && e.actual_bps < b.hi) b.errors.push_back(e.error);
        }
        (e.actual_bps <= 0.5e6 ? low_r : high_r).push_back(e.error);
    }

    std::printf("%-18s %6s %9s %9s %9s %10s\n", "R bin (Mbps)", "n", "E p10", "E median",
                "E p90", "P(E>5)");
    for (const auto& b : bins) {
        if (b.errors.empty()) continue;
        std::printf("%6.2f .. %-8.2f %6zu %9.2f %9.2f %9.2f %9.0f%%\n", b.lo / 1e6,
                    b.hi > 1e9 ? 99.0 : b.hi / 1e6, b.errors.size(),
                    analysis::quantile(b.errors, 0.1), analysis::median(b.errors),
                    analysis::quantile(b.errors, 0.9),
                    100.0 * analysis::share(b.errors, [](double e) { return e > 5; }));
    }

    std::printf("\nheadline: P(E > 5 | R <= 0.5 Mbps) = %.0f%%  vs  P(E > 5 | R > 0.5 Mbps) = %.1f%%\n",
                100.0 * analysis::share(low_r, [](double e) { return e > 5; }),
                100.0 * analysis::share(high_r, [](double e) { return e > 5; }));
    std::printf("(paper used the E > 10 threshold at its deeper congestion levels; the "
                "concentration of large errors on slow transfers is the reproduced shape)\n");
    return 0;
}
