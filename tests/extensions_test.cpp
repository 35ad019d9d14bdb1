// Tests for the extension layer: AR(p) forecasting, the hybrid FB+HB
// predictor (through the registry), the NWS-style adaptive selector, and
// loss-event collapsing.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/adaptive_selector.hpp"
#include "core/ar_predictor.hpp"
#include "core/loss_events.hpp"
#include "core/lso.hpp"
#include "core/predictor.hpp"
#include "core/predictor_registry.hpp"
#include "sim/rng.hpp"

#include "analysis/evaluation.hpp"

namespace tcppred::core {
namespace {

// ---------- AR(p) ----------

TEST(ar_fit, recovers_ar1_coefficient) {
    // x_t = 0.7 x_{t-1} + e_t
    sim::rng r(5);
    std::vector<double> series{0.0};
    for (int i = 0; i < 5000; ++i) {
        series.push_back(0.7 * series.back() + r.normal(0.0, 1.0));
    }
    const auto coeffs = fit_ar_coefficients(series, 1);
    ASSERT_EQ(coeffs.size(), 1u);
    EXPECT_NEAR(coeffs[0], 0.7, 0.05);
}

TEST(ar_fit, recovers_ar2_coefficients) {
    sim::rng r(9);
    std::vector<double> series{0.0, 0.0};
    for (int i = 0; i < 8000; ++i) {
        const std::size_t n = series.size();
        series.push_back(0.5 * series[n - 1] - 0.3 * series[n - 2] + r.normal(0.0, 1.0));
    }
    const auto coeffs = fit_ar_coefficients(series, 2);
    ASSERT_EQ(coeffs.size(), 2u);
    EXPECT_NEAR(coeffs[0], 0.5, 0.05);
    EXPECT_NEAR(coeffs[1], -0.3, 0.05);
}

TEST(ar_fit, degenerate_series_yields_no_fit) {
    EXPECT_TRUE(fit_ar_coefficients({1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, 2).empty());
    EXPECT_TRUE(fit_ar_coefficients({1.0, 2.0}, 3).empty());
}

TEST(ar_predictor_class, falls_back_to_mean_with_short_history) {
    ar_predictor ar(2);
    ar.observe(10.0);
    ar.observe(20.0);
    EXPECT_DOUBLE_EQ(ar.predict(), 15.0);
}

TEST(ar_predictor_class, learns_constant_series) {
    ar_predictor ar(3);
    for (int i = 0; i < 40; ++i) ar.observe(7e6);
    EXPECT_NEAR(ar.predict(), 7e6, 7e6 * 1e-6);
}

TEST(ar_predictor_class, tracks_persistent_series_better_than_mean) {
    // Strongly autocorrelated series: AR should beat the plain window mean.
    sim::rng r(11);
    std::vector<double> series;
    double x = 5e6;
    for (int i = 0; i < 200; ++i) {
        x = 4e6 + 0.85 * (x - 4e6) + r.normal(0.0, 2e5);
        series.push_back(std::max(x, 1e5));
    }
    const auto ar_eval = analysis::evaluate_series(
        series, history_predictor(std::make_unique<ar_predictor>(2)));
    const auto ma_eval = analysis::evaluate_series(
        series, history_predictor(std::make_unique<moving_average>(20)));
    EXPECT_LT(ar_eval.rmsre, ma_eval.rmsre);
}

TEST(ar_predictor_class, respects_window_and_rejects_bad_args) {
    EXPECT_THROW(ar_predictor(0), std::invalid_argument);
    EXPECT_THROW(ar_predictor(4, 3), std::invalid_argument);
    ar_predictor windowed(1, 10);
    for (int i = 0; i < 50; ++i) windowed.observe(static_cast<double>(i));
    EXPECT_EQ(windowed.history_size(), 10u);
}

TEST(ar_predictor_class, forecast_is_never_negative) {
    ar_predictor ar(2);
    // Steeply decreasing series would extrapolate below zero.
    for (double x = 100.0; x > 1.0; x -= 12.0) ar.observe(x);
    EXPECT_GT(ar.predict(), 0.0);
}

// ---------- hybrid FB+HB ----------

/// A lossless measurement whose Eq. 3 forecast is exactly `bps`: Â sits far
/// below the window bound W/T̂ (about 140 Mbit/s at W = 1 MB, T̂ = 60 ms).
epoch_inputs fb_says(double bps) {
    return epoch_inputs::valid(
        path_measurement{probability{0.0}, seconds{0.060}, bits_per_second{bps}});
}

TEST(hybrid, uses_fb_when_no_history) {
    const auto h = make_predictor("hybrid:10-MA");
    EXPECT_FALSE(h->predict(epoch_inputs::absent()).usable());
    const prediction p = h->predict(fb_says(5e6));
    ASSERT_TRUE(p.usable());
    EXPECT_DOUBLE_EQ(p.value_bps, 5e6);
    EXPECT_EQ(p.inputs_used.history_samples, 0u);
}

TEST(hybrid, converges_to_hb_with_history) {
    const auto h = make_predictor("hybrid:10-MA:2");
    for (int i = 0; i < 50; ++i) {
        (void)h->predict(fb_says(10e6));
        h->observe(2e6);
    }
    // weight = n/(n+k) with n = 50 observations: w = 50/52.
    EXPECT_NEAR(h->predict(fb_says(10e6)).value_bps,
                50.0 / 52.0 * 2e6 + 2.0 / 52.0 * 10e6, 1.0);
}

TEST(hybrid, works_without_fb_input) {
    const auto h = make_predictor("hybrid:5-MA");
    h->observe(3e6);
    const prediction p = h->predict(epoch_inputs::absent());
    ASSERT_TRUE(p.usable());
    EXPECT_DOUBLE_EQ(p.value_bps, 3e6);
}

TEST(hybrid, blends_between_the_two) {
    const auto h = make_predictor("hybrid:10-MA:3");
    (void)h->predict(fb_says(8e6));
    h->observe(2e6);  // w = 1/4
    EXPECT_NEAR(h->predict(fb_says(8e6)).value_bps, 0.25 * 2e6 + 0.75 * 8e6, 1.0);
}

TEST(hybrid, reset_forgets_history_and_the_fb_fallback) {
    const auto h = make_predictor("hybrid:5-MA");
    (void)h->predict(fb_says(6e6));
    h->observe(1e6);
    h->reset();
    // No last good measurement to reuse and no history: nothing to forecast.
    EXPECT_FALSE(h->predict(epoch_inputs::failed_measurement()).usable());
    const prediction p = h->predict(fb_says(6e6));
    EXPECT_DOUBLE_EQ(p.value_bps, 6e6);
    EXPECT_EQ(p.inputs_used.history_samples, 0u);
}

// ---------- adaptive selector (NWS-style) ----------

TEST(adaptive_selector_class, picks_the_better_candidate) {
    // On a strong linear trend HW beats MA decisively; the selector must
    // converge to the HW candidate.
    std::vector<std::unique_ptr<hb_predictor>> set;
    set.push_back(std::make_unique<moving_average>(10));
    set.push_back(std::make_unique<holt_winters>(0.8, 0.2));
    adaptive_selector sel(std::move(set));
    for (int i = 0; i < 60; ++i) sel.observe(1e6 + 2e5 * i);
    EXPECT_EQ(sel.best_name(), "0.8-HW");
    // And its forecast continues the trend rather than lagging it.
    EXPECT_GT(sel.predict(), 1e6 + 2e5 * 58);
}

TEST(adaptive_selector_class, tracks_regime_change_in_best_predictor) {
    std::vector<std::unique_ptr<hb_predictor>> set;
    set.push_back(std::make_unique<moving_average>(1));
    set.push_back(std::make_unique<moving_average>(20));
    adaptive_selector sel(std::move(set));
    // Alternating series: 20-MA (predicting the mean) wins over 1-MA
    // (always predicting the previous, i.e. the wrong, extreme).
    for (int i = 0; i < 60; ++i) sel.observe(i % 2 == 0 ? 2e6 : 4e6);
    EXPECT_EQ(sel.best_name(), "20-MA");
}

TEST(adaptive_selector_class, standard_set_runs_end_to_end) {
    auto sel = adaptive_selector::standard();
    sim::rng r(8);
    for (int i = 0; i < 80; ++i) sel->observe(5e6 * (1.0 + r.normal(0.0, 0.1)));
    EXPECT_FALSE(std::isnan(sel->predict()));
    EXPECT_NEAR(sel->predict(), 5e6, 1.5e6);
}

TEST(adaptive_selector_class, clone_empty_preserves_candidates) {
    auto sel = adaptive_selector::standard();
    auto clone = sel->clone_empty();
    EXPECT_EQ(clone->name(), sel->name());
    EXPECT_TRUE(std::isnan(clone->predict()));
}

TEST(adaptive_selector_class, rejects_bad_construction) {
    EXPECT_THROW(adaptive_selector({}), std::invalid_argument);
}

// ---------- loss events ----------

TEST(loss_events, rates_on_simple_patterns) {
    const std::vector<std::uint8_t> isolated{1, 1, 0, 1, 1, 0, 1, 1, 1, 1};
    EXPECT_DOUBLE_EQ(packet_loss_rate(isolated), 0.2);
    EXPECT_DOUBLE_EQ(loss_event_rate(isolated), 0.2);  // isolated: same
    EXPECT_DOUBLE_EQ(mean_loss_burst_length(isolated), 1.0);

    const std::vector<std::uint8_t> bursty{1, 0, 0, 0, 1, 1, 0, 0, 1, 1};
    EXPECT_DOUBLE_EQ(packet_loss_rate(bursty), 0.5);
    EXPECT_DOUBLE_EQ(loss_event_rate(bursty), 0.2);  // 2 bursts / 10
    EXPECT_DOUBLE_EQ(mean_loss_burst_length(bursty), 2.5);
}

TEST(loss_events, lossless_and_empty_sequences) {
    const std::vector<std::uint8_t> clean{1, 1, 1, 1};
    EXPECT_DOUBLE_EQ(packet_loss_rate(clean), 0.0);
    EXPECT_DOUBLE_EQ(loss_event_rate(clean), 0.0);
    EXPECT_DOUBLE_EQ(mean_loss_burst_length(clean), 0.0);
    EXPECT_DOUBLE_EQ(loss_event_rate(std::vector<std::uint8_t>{}), 0.0);
}

TEST(loss_events, event_rate_never_exceeds_packet_rate) {
    sim::rng r(13);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint8_t> seq;
        for (int i = 0; i < 200; ++i) seq.push_back(r.chance(0.15) ? 0 : 1);
        EXPECT_LE(loss_event_rate(seq), packet_loss_rate(seq) + 1e-12);
    }
}

}  // namespace
}  // namespace tcppred::core
