// Extension predictors versus the paper's set, over the same campaign:
//  * AR(p) — the ARIMA-class predictor the paper skipped for needing too
//    much history (§5, §7): does it actually beat the simple ones here?
//  * NWS-style adaptive selection — race the paper's predictors and always
//    use the currently-best one.
//  * hybrid FB+HB (§7 future work) — measured on cold-start regret: the
//    first transfers of every trace, where HB has little or no history.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/metrics.hpp"
#include "core/predictor_registry.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Ablation: extension predictors (AR, adaptive selection, hybrid FB+HB)",
           "the paper conjectures ARIMA-class models need too much history to help "
           "(s5), and proposes hybrid FB+HB predictors as future work (s7)");

    const auto data = testbed::ensure_campaign1();

    std::printf("per-trace RMSRE (median / 90th percentile across traces):\n");
    std::printf("  %-14s %8s %8s\n", "predictor", "median", "p90");
    const auto results = run_predictors(
        data, {"10-MA-LSO", "0.8-HW-LSO", "2-AR", "4-AR", "8-AR", "4-AR-LSO", "NWS"});
    for (const auto& result : results) {
        const auto h = analysis::rmsre_headline_of(result.trace_rmsres());
        std::printf("  %-14s %8.3f %8.3f\n", result.name.c_str(), h.median, h.p90);
    }

    // Hybrid cold start: score only the first `horizon` transfers of each
    // trace, comparing pure-HB, pure-FB and the hybrid. Every predictor is
    // driven through the same unified streaming interface.
    const std::size_t horizon = 5;
    std::vector<double> hb_err, fb_err, hybrid_err;
    for (const auto& [key, recs] : data.traces()) {
        const auto fb = core::make_predictor("fb:pftk");
        const auto hb = core::make_predictor("0.8-HW-LSO");
        const auto hybrid = core::make_predictor("hybrid:0.8-HW-LSO");
        for (std::size_t i = 0; i < recs.size() && i < horizon; ++i) {
            const auto& m = recs[i]->m;
            if (m.that_s <= 0 || m.r_large_bps <= 0) continue;
            const auto in = core::epoch_inputs::valid(
                core::path_measurement{core::probability{m.phat},
                                       core::seconds{m.that_s},
                                       core::bits_per_second{m.avail_bw_bps}});

            fb_err.push_back(
                core::relative_error(fb->predict(in).value_bps, m.r_large_bps));
            const auto hy = hybrid->predict(in);
            if (hy.usable()) {
                hybrid_err.push_back(core::relative_error(hy.value_bps, m.r_large_bps));
            }
            const auto hb_forecast = hb->predict(in);
            if (hb_forecast.usable()) {
                hb_err.push_back(
                    core::relative_error(hb_forecast.value_bps, m.r_large_bps));
            }
            hybrid->observe(m.r_large_bps);
            hb->observe(m.r_large_bps);
        }
    }
    std::printf("\ncold start (first %zu transfers of every trace), RMSRE:\n", horizon);
    std::printf("  %-22s %8.3f  (n=%zu; no forecast for the first sample)\n",
                "pure HB (HW-LSO)", core::rmsre(hb_err), hb_err.size());
    std::printf("  %-22s %8.3f  (n=%zu)\n", "pure FB (Eq. 3)", core::rmsre(fb_err),
                fb_err.size());
    std::printf("  %-22s %8.3f  (n=%zu; covers the first sample too)\n",
                "hybrid FB+HB (k=3)", core::rmsre(hybrid_err), hybrid_err.size());
    return 0;
}
