// Running your own measurement study: the full pipeline the repository is
// built around, end to end on a small custom testbed — define paths, run a
// campaign of epochs, persist the dataset, and analyze both predictor
// families over it with one streaming engine pass. This is the template to
// adapt for new experiments.
//
// Build & run:  ./build/examples/measurement_study
#include <cstdio>

#include "analysis/evaluation.hpp"
#include "analysis/stats.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::testbed;

int main() {
    std::printf("a self-contained measurement study on a custom 6-path testbed\n\n");

    // --- 1. Define the campaign: 6 paths, 1 trace each, 40 epochs.
    campaign_config cfg;
    cfg.paths = 6;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 40;
    cfg.seed = 424242;
    cfg.epoch.transfer = core::seconds{8.0};

    // --- 2. Collect (prints nothing; takes a few seconds of CPU).
    const dataset data = run_campaign(cfg);
    std::printf("collected %zu epochs over %zu paths\n", data.records.size(),
                data.paths.size());

    // --- 3. Persist and reload, exactly like the cached benchmark campaigns.
    const auto file = data_dir() / "example_study.csv";
    std::filesystem::create_directories(data_dir());
    save_csv(data, file);
    const dataset loaded = load_csv(file);
    std::printf("round-tripped through %s (%zu records)\n\n", file.string().c_str(),
                loaded.records.size());

    // --- 4. One engine pass evaluates the FB predictor and every HB spec.
    const analysis::evaluation_engine engine;
    const auto results = engine.run(
        loaded, {"fb:pftk", "1-MA", "10-MA", "10-MA-LSO", "0.8-HW", "0.8-HW-LSO"});

    // Formula-based accuracy.
    const auto errors = results[0].epoch_errors();
    std::printf("FB prediction over %zu epochs: median E %.2f, %.0f%% overestimates\n",
                errors.size(), analysis::median(errors),
                100.0 * analysis::fb_error_shares_of(errors).over);

    // --- 5. History-based accuracy, per predictor.
    std::printf("\nHB per-trace RMSRE (median across traces):\n");
    for (std::size_t i = 1; i < results.size(); ++i) {
        std::printf("  %-12s %.3f\n", results[i].name.c_str(),
                    analysis::rmsre_headline_of(results[i].trace_rmsres()).median);
    }

    // --- 6. The paper's headline relation: trace CoV vs HB error.
    const auto pts = analysis::cov_vs_rmsre(loaded, "0.8-HW-LSO");
    std::vector<double> cov, rmsre;
    for (const auto& p : pts) {
        cov.push_back(p.cov);
        rmsre.push_back(p.rmsre);
    }
    std::printf("\ncorr(trace CoV, HW-LSO RMSRE) = %.2f over %zu traces\n",
                analysis::pearson(cov, rmsre), pts.size());
    std::printf("\nadapt campaign_config / path_catalog to design your own study.\n");
    return 0;
}
