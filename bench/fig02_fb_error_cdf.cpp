// Fig. 2: CDF of the FB relative prediction error E for all predictions,
// for lossy-path (PFTK) predictions, and for lossless-path (avail-bw)
// predictions.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 2: CDF of E for all / lossy / lossless FB predictions",
           "~40% of predictions overestimate by more than 2x (E>=1); ~10% by more than "
           "10x (E>=9); only ~8% underestimate by more than 2x; lossless (avail-bw) "
           "predictions rarely underestimate and overestimate less");

    const auto data = testbed::ensure_campaign1();
    const auto fb = analysis::evaluation_engine{}.run_one(data, "fb:pftk");

    std::vector<double> all, lossy, lossless;
    for (const auto& e : fb.all_epochs()) {
        all.push_back(e.error);
        if (e.source == core::prediction_source::model_based) {
            lossy.push_back(e.error);
        } else {
            lossless.push_back(e.error);
        }
    }

    const auto grid = error_grid();
    const std::vector<std::pair<std::string, analysis::ecdf>> series{
        {"all predictions", analysis::ecdf(all)},
        {"lossy paths (PFTK)", analysis::ecdf(lossy)},
        {"lossless paths (A-hat)", analysis::ecdf(lossless)},
    };
    print_cdf_table(series, grid, "E ->");

    const analysis::fb_error_shares shares = analysis::fb_error_shares_of(all);
    std::printf("\nheadline: n=%zu (lossy %zu / lossless %zu)\n", shares.n, lossy.size(),
                lossless.size());
    std::printf("  overestimation (E>0):            %.0f%%\n", 100.0 * shares.over);
    std::printf("  overestimate by >2x  (E>=1):     %.0f%%\n", 100.0 * shares.over_2x);
    std::printf("  overestimate by >10x (E>=9):     %.0f%%\n", 100.0 * shares.over_10x);
    std::printf("  underestimate by >2x (E<=-1):    %.0f%%\n", 100.0 * shares.under_2x);
    std::printf("  lossless underestimates (E<=-1): %.0f%%\n",
                100.0 * analysis::fb_error_shares_of(lossless).under_2x);
    return 0;
}
