#include "core/fb_predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "core/metrics.hpp"
#include "core/predictor_registry.hpp"

namespace tcppred::core {
namespace {

const tcp_flow_params k_flow{bytes{1 << 20}};

path_measurement measurement(double p, double rtt_s, double abw_bps) {
    return path_measurement{probability{p}, seconds{rtt_s}, bits_per_second{abw_bps}};
}

TEST(fb_predict, lossy_path_uses_model_branch) {
    const path_measurement m = measurement(0.01, 0.060, 5e6);
    const fb_prediction pred = fb_predict(k_flow, m);
    EXPECT_EQ(pred.branch, fb_branch::model_based);
    EXPECT_NEAR(
        pred.throughput.value(),
        pftk_throughput(k_flow, seconds{0.060}, probability{0.01}, seconds{1.0}).value(),
        1.0);
}

TEST(fb_predict, lossless_path_uses_availbw_when_below_window_bound) {
    const path_measurement m = measurement(0.0, 0.060, 5e6);  // W/T ~ 140 Mbps >> Â
    const fb_prediction pred = fb_predict(k_flow, m);
    EXPECT_EQ(pred.branch, fb_branch::avail_bw);
    EXPECT_DOUBLE_EQ(pred.throughput.value(), 5e6);
}

TEST(fb_predict, lossless_window_limited_uses_window_bound) {
    tcp_flow_params f = k_flow;
    f.max_window = bytes{20.0 * 1024.0};  // W/T ~ 2.7 Mbps < Â
    const path_measurement m = measurement(0.0, 0.060, 5e6);
    const fb_prediction pred = fb_predict(f, m);
    EXPECT_EQ(pred.branch, fb_branch::window_bound);
    EXPECT_DOUBLE_EQ(pred.throughput.value(), 20 * 1024 * 8.0 / 0.060);
}

TEST(fb_predict, missing_availbw_falls_back_to_window_bound) {
    const path_measurement m = measurement(0.0, 0.060, 0.0);
    const fb_prediction pred = fb_predict(k_flow, m);
    EXPECT_EQ(pred.branch, fb_branch::window_bound);
}

TEST(fb_predict, custom_t0_is_respected) {
    const path_measurement m = measurement(0.02, 0.060, 0.0);
    const double with_default = fb_predict(k_flow, m).throughput.value();  // T0 = 1 s
    const double with_longer =
        fb_predict(k_flow, m, formula_kind::pftk, seconds{3.0}).throughput.value();
    EXPECT_GT(with_default, with_longer);
}

TEST(fb_predict, formula_selector_switches_models) {
    const path_measurement m = measurement(0.05, 0.080, 0.0);
    const double sq = fb_predict(k_flow, m, formula_kind::square_root).throughput.value();
    const double pftk = fb_predict(k_flow, m, formula_kind::pftk).throughput.value();
    const double full = fb_predict(k_flow, m, formula_kind::pftk_full).throughput.value();
    EXPECT_GT(sq, pftk);  // square-root ignores timeouts
    EXPECT_NE(pftk, full);
}

TEST(fb_predict, minwa_ignores_the_loss_estimate) {
    const path_measurement m = measurement(0.05, 0.060, 5e6);
    const fb_prediction pred = fb_predict(k_flow, m, formula_kind::min_wa);
    EXPECT_EQ(pred.branch, fb_branch::avail_bw);
    EXPECT_DOUBLE_EQ(pred.throughput.value(), 5e6);
}

TEST(fb_predict, contract_rejects_nonpositive_rtt) {
#if TCPPRED_CHECKS
    const path_measurement m = measurement(0.01, 0.0, 0.0);
    EXPECT_THROW((void)fb_predict(k_flow, m), contract_violation);
#else
    GTEST_SKIP() << "contract checks compiled out (Release without REPRO_CHECKS)";
#endif
}

// ---- the staleness fallback around Eq. 3 ----------------------------------
// A failed a-priori measurement reuses the path's last good one for at most
// three epochs; older inputs give no forecast at all.

TEST(fb_staleness, reuses_the_last_good_measurement_up_to_the_bound) {
    const auto fb = make_predictor("fb:pftk");
    const path_measurement m = measurement(0.01, 0.060, 5e6);
    const prediction fresh = fb->predict(epoch_inputs::valid(m));
    ASSERT_TRUE(fresh.usable());
    EXPECT_EQ(fresh.inputs_used.staleness, 0u);
    for (std::size_t age = 1; age <= 3; ++age) {
        const prediction stale = fb->predict(epoch_inputs::failed_measurement());
        ASSERT_TRUE(stale.usable()) << "age " << age;
        EXPECT_EQ(stale.inputs_used.staleness, age);
        EXPECT_EQ(stale.inputs_used.source, prediction_source::model_based);
        EXPECT_EQ(stale.value_bps, fresh.value_bps);
    }
    const prediction expired = fb->predict(epoch_inputs::failed_measurement());
    EXPECT_EQ(expired.status, prediction_status::unavailable);
    EXPECT_TRUE(std::isnan(expired.value_bps));
    // A good measurement restarts the count.
    const prediction again = fb->predict(epoch_inputs::valid(m));
    ASSERT_TRUE(again.usable());
    EXPECT_EQ(again.inputs_used.staleness, 0u);
}

TEST(fb_staleness, an_absent_epoch_does_not_age_the_fallback) {
    const auto fb = make_predictor("fb:pftk");
    ASSERT_TRUE(fb->predict(epoch_inputs::valid(measurement(0.01, 0.060, 5e6))).usable());
    EXPECT_EQ(fb->predict(epoch_inputs::failed_measurement()).inputs_used.staleness, 1u);
    EXPECT_EQ(fb->predict(epoch_inputs::absent()).status, prediction_status::unavailable);
    EXPECT_EQ(fb->predict(epoch_inputs::failed_measurement()).inputs_used.staleness, 2u);
    EXPECT_EQ(fb->predict(epoch_inputs::failed_measurement()).inputs_used.staleness, 3u);
    EXPECT_EQ(fb->predict(epoch_inputs::failed_measurement()).status,
              prediction_status::unavailable);
}

TEST(fb_staleness, nothing_to_fall_back_on_before_a_good_measurement) {
    const auto fb = make_predictor("fb:pftk");
    EXPECT_EQ(fb->predict(epoch_inputs::failed_measurement()).status,
              prediction_status::unavailable);
}

TEST(fb_staleness, hybrid_forecasts_from_history_alone_past_the_bound) {
    const path_measurement m = measurement(0.01, 0.060, 5e6);
    const double fb_bps = make_predictor("fb:pftk")->predict(epoch_inputs::valid(m)).value_bps;
    const auto hybrid = make_predictor("hybrid:10-MA");
    ASSERT_TRUE(hybrid->predict(epoch_inputs::valid(m)).usable());
    hybrid->observe(2e6);
    for (std::size_t age = 1; age <= 3; ++age) {
        const prediction p = hybrid->predict(epoch_inputs::failed_measurement());
        ASSERT_TRUE(p.usable()) << "age " << age;
        EXPECT_EQ(p.inputs_used.staleness, age);
        const double w = static_cast<double>(age) / (static_cast<double>(age) + 3.0);
        EXPECT_DOUBLE_EQ(p.value_bps, w * 2e6 + (1.0 - w) * fb_bps);
        hybrid->observe(2e6);
    }
    const prediction past = hybrid->predict(epoch_inputs::failed_measurement());
    ASSERT_TRUE(past.usable());
    EXPECT_EQ(past.inputs_used.source, prediction_source::blended);
    EXPECT_EQ(past.inputs_used.staleness, 0u);
    EXPECT_EQ(past.inputs_used.history_samples, 4u);
    EXPECT_EQ(past.value_bps, 2e6);  // the 10-MA forecast over four samples of 2e6
}

TEST(relative_error, zero_for_exact_prediction) {
    EXPECT_DOUBLE_EQ(relative_error(5e6, 5e6), 0.0);
}

TEST(relative_error, symmetric_over_and_under_estimation) {
    // Predicting w*R or R/w must yield |E| = w - 1 (the property Eq. 4 is
    // designed for).
    const double r = 2e6;
    for (const double w : {1.5, 2.0, 5.0, 10.0}) {
        EXPECT_NEAR(relative_error(w * r, r), w - 1.0, 1e-9);
        EXPECT_NEAR(relative_error(r / w, r), -(w - 1.0), 1e-9);
    }
}

TEST(relative_error, sign_tracks_direction) {
    EXPECT_GT(relative_error(2e6, 1e6), 0.0);  // overestimate
    EXPECT_LT(relative_error(1e6, 2e6), 0.0);  // underestimate
}

TEST(rmsre_metric, matches_hand_computation) {
    const std::vector<double> errors{1.0, -1.0, 2.0};
    EXPECT_NEAR(rmsre(errors), std::sqrt((1.0 + 1.0 + 4.0) / 3.0), 1e-12);
}

TEST(rmsre_metric, empty_is_nan) {
    // An empty series has no error evidence at all — NaN, not a perfect 0
    // (0 would score an all-faulty trace as a flawless forecast).
    EXPECT_TRUE(std::isnan(rmsre(std::vector<double>{})));
}

}  // namespace
}  // namespace tcppred::core
