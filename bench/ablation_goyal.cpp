// Goyal et al. extension (§2): feed PFTK the congestion-EVENT rate
// (consecutive probe losses collapsed) instead of the raw probe loss rate,
// and quantify how much of the FB error that correction recovers.
#include <cstdio>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

namespace {

// The paper's comparison covers PFTK-based (lossy-branch) predictions.
std::vector<double> lossy_errors(const analysis::predictor_result& fb) {
    std::vector<double> errors;
    for (const auto& e : fb.all_epochs()) {
        if (e.source == core::prediction_source::model_based) errors.push_back(e.error);
    }
    return errors;
}

}  // namespace

int main() {
    banner("Ablation (Goyal et al.): PFTK on loss-event rate p' vs raw loss rate p",
           "the PFTK parameter should be the congestion-event probability; collapsing "
           "bursty probe losses into events moves the estimate toward p' and should "
           "reduce the PFTK underestimation on burst-lossy paths — but cannot fix the "
           "dominant self-induced-congestion error");

    const auto data = testbed::ensure_campaign1();

    analysis::engine_options events;
    events.use_event_loss = true;

    const auto raw_err =
        lossy_errors(analysis::evaluation_engine{}.run_one(data, "fb:pftk"));
    const auto event_err =
        lossy_errors(analysis::evaluation_engine{events}.run_one(data, "fb:pftk"));

    const auto grid = error_grid();
    const std::vector<std::pair<std::string, analysis::ecdf>> series{
        {"raw loss rate p-hat", analysis::ecdf(raw_err)},
        {"event rate p'-hat", analysis::ecdf(event_err)},
    };
    print_cdf_table(series, grid, "E ->");

    // How different are the two inputs themselves?
    std::vector<double> burst_factor;
    for (const auto& r : data.records) {
        if (r.m.phat_events > 0) burst_factor.push_back(r.m.phat / r.m.phat_events);
    }
    std::printf("\nheadline: probe-loss burst factor p/p' median %.2f (p90 %.2f); "
                "median E raw %.2f vs events %.2f; |E|>=1 raw %.0f%% vs events %.0f%%\n",
                analysis::median(burst_factor), analysis::quantile(burst_factor, 0.9),
                analysis::median(raw_err), analysis::median(event_err),
                100.0 * analysis::share(raw_err, [](double e) { return std::abs(e) >= 1; }),
                100.0 * analysis::share(event_err, [](double e) { return std::abs(e) >= 1; }));
    return 0;
}
