// Fig. 6 / §4.2.3: FB prediction error if the during-flow (periodically
// probed) RTT and loss rate were known, versus the a-priori measurements —
// isolating the TCP-sampling-vs-periodic-probing error source.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

namespace {

// Restrict to epochs that are lossy in the respective input (the paper's
// Fig. 6 covers PFTK-based predictions).
std::vector<double> lossy_errors(const analysis::predictor_result& fb) {
    std::vector<double> errors;
    for (const auto& e : fb.all_epochs()) {
        if (e.source == core::prediction_source::model_based) errors.push_back(e.error);
    }
    return errors;
}

}  // namespace

int main() {
    banner("Fig. 6: FB error with during-flow (T~, p~) vs prior (T^, p^) estimates",
           "knowing the during-flow probe view makes errors smaller and symmetric "
           "(-3 < E < 3 for ~80%), but over half the predictions are still off by >2x: "
           "periodic probing does not sample the path the way TCP does");

    const auto data = testbed::ensure_campaign1();

    analysis::engine_options during_opts;
    during_opts.use_during_flow = true;

    const auto prior_err =
        lossy_errors(analysis::evaluation_engine{}.run_one(data, "fb:pftk"));
    const auto during_err =
        lossy_errors(analysis::evaluation_engine{during_opts}.run_one(data, "fb:pftk"));

    const auto grid = error_grid();
    const std::vector<std::pair<std::string, analysis::ecdf>> series{
        {"prior (T^, p^)", analysis::ecdf(prior_err)},
        {"during flow (T~, p~)", analysis::ecdf(during_err)},
    };
    print_cdf_table(series, grid, "E ->");

    std::printf("\nheadline:\n");
    std::printf("  prior:  |E| >= 1: %.0f%%, overestimation share %.0f%%\n",
                100.0 * analysis::share(prior_err, [](double e) { return std::abs(e) >= 1; }),
                100.0 * analysis::share(prior_err, [](double e) { return e > 0; }));
    std::printf("  during: |E| >= 1: %.0f%%, overestimation share %.0f%% (should be nearer 50%%)\n",
                100.0 * analysis::share(during_err, [](double e) { return std::abs(e) >= 1; }),
                100.0 * analysis::share(during_err, [](double e) { return e > 0; }));
    return 0;
}
