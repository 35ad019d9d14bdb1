#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/evaluation.hpp"
#include "analysis/stats.hpp"
#include "core/units.hpp"
#include "testbed/campaign.hpp"

namespace tcppred::analysis {
namespace {

using testbed::dataset;
using testbed::epoch_record;

/// Hand-built dataset: 2 paths x 1 trace x 6 epochs with controlled values.
dataset synthetic_dataset() {
    dataset data;
    for (int path = 0; path < 2; ++path) {
        testbed::path_profile p;
        p.id = path;
        // Built up in two steps: GCC 12's -Wrestrict false-fires on
        // `const char* + std::string&&` at -O2.
        p.name = "p";
        p.name += std::to_string(path);
        p.forward = {net::hop_config{core::bits_per_second{10e6}, core::seconds{0.02}, 64}};
        p.reverse = {net::hop_config{core::bits_per_second{100e6}, core::seconds{0.02}, 64}};
        data.paths.push_back(p);
        for (int e = 0; e < 6; ++e) {
            epoch_record r;
            r.path_id = path;
            r.trace_id = 0;
            r.epoch_index = e;
            r.m.phat = path == 0 ? 0.01 : 0.0;  // path 0 lossy, path 1 lossless
            r.m.that_s = 0.05;
            r.m.avail_bw_bps = 5e6;
            r.m.ptilde = r.m.phat * 2;
            r.m.ttilde_s = 0.06;
            r.m.r_large_bps = 2e6 + 1e5 * e;
            r.m.r_small_bps = 1e6;
            data.records.push_back(r);
        }
    }
    return data;
}

TEST(engine_fb, branches_follow_loss_state) {
    const auto data = synthetic_dataset();
    const auto fb = evaluation_engine{}.run_one(data, "fb:pftk");
    const auto evals = fb.all_epochs();
    ASSERT_EQ(evals.size(), 12u);
    for (const auto& e : evals) {
        if (e.rec->path_id == 0) {
            EXPECT_EQ(e.source, core::prediction_source::model_based);
        } else {
            EXPECT_EQ(e.source, core::prediction_source::avail_bw);
        }
    }
}

TEST(engine_fb, error_sign_matches_prediction_direction) {
    const auto data = synthetic_dataset();
    for (const auto& e : evaluation_engine{}.run_one(data, "fb:pftk").all_epochs()) {
        if (e.predicted_bps > e.actual_bps) {
            EXPECT_GT(e.error, 0.0);
        } else if (e.predicted_bps < e.actual_bps) {
            EXPECT_LT(e.error, 0.0);
        }
    }
}

TEST(engine_fb, during_flow_option_changes_inputs) {
    const auto data = synthetic_dataset();
    engine_options during;
    during.use_during_flow = true;
    const auto prior_evals = evaluation_engine{}.run_one(data, "fb:pftk").all_epochs();
    const auto during_evals =
        evaluation_engine{during}.run_one(data, "fb:pftk").all_epochs();
    // Lossy path: double loss rate and higher RTT => lower prediction.
    EXPECT_LT(during_evals[0].predicted_bps, prior_evals[0].predicted_bps);
}

TEST(engine_fb, small_window_option_scores_companion_flow) {
    const auto data = synthetic_dataset();
    engine_options small;
    small.small_window = true;
    small.predictor.window_bytes = 20 * 1024;
    for (const auto& e : evaluation_engine{small}.run_one(data, "fb:pftk").all_epochs()) {
        EXPECT_DOUBLE_EQ(e.actual_bps, 1e6);
        // W/T = 20KB*8/0.05 = 3.27 Mbps bounds every branch.
        EXPECT_LE(e.predicted_bps, 20 * 1024 * 8 / 0.05 + 1);
    }
}

TEST(engine_fb, smoothing_uses_previous_epochs_only) {
    dataset data = synthetic_dataset();
    // Give path 0 a spiky loss sequence; with smoothing, epoch 1's input is
    // exactly epoch 0's measurement.
    for (auto& r : data.records) {
        if (r.path_id == 0) r.m.phat = r.epoch_index == 0 ? 0.04 : 0.0001;
    }
    engine_options opts;
    opts.smooth_inputs = true;
    const auto evals = evaluation_engine{opts}.run_one(data, "fb:pftk").all_epochs();
    const auto raw = evaluation_engine{}.run_one(data, "fb:pftk").all_epochs();
    // Epoch 1 smoothed input = history {0.04} -> much lower prediction than
    // the raw 0.0001-based one.
    const auto find = [&](const std::vector<epoch_score>& v, int epoch) {
        for (const auto& e : v) {
            if (e.rec->path_id == 0 && e.rec->epoch_index == epoch) return e;
        }
        throw std::runtime_error("missing epoch");
    };
    EXPECT_LT(find(evals, 1).predicted_bps, find(raw, 1).predicted_bps);
}

TEST(engine_fb, per_trace_rmsre_groups_correctly) {
    const auto data = synthetic_dataset();
    const auto fb = evaluation_engine{}.run_one(data, "fb:pftk");
    ASSERT_EQ(fb.traces.size(), 2u);
    for (const auto& t : fb.traces) EXPECT_EQ(t.forecasts(), 6u);
}

TEST(engine_fb, per_path_summary_quantiles_ordered) {
    const auto data = synthetic_dataset();
    for (const auto& s : error_per_path(evaluation_engine{}.run_one(data, "fb:pftk"))) {
        EXPECT_LE(s.p10, s.median);
        EXPECT_LE(s.median, s.p90);
    }
}

TEST(engine_hb, per_trace_rmsre_zero_on_constant_series) {
    dataset data = synthetic_dataset();
    for (auto& r : data.records) r.m.r_large_bps = 4e6;
    for (const auto& t : evaluation_engine{}.run_one(data, "10-MA").traces) {
        EXPECT_DOUBLE_EQ(t.rmsre, 0.0);
    }
}

TEST(engine_hb, downsample_reduces_forecast_count) {
    const auto data = synthetic_dataset();
    engine_options sparse;
    sparse.downsample = 2;
    const auto a = evaluation_engine{}.run_one(data, "1-MA").traces;
    const auto b = evaluation_engine{sparse}.run_one(data, "1-MA").traces;
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_GT(a[0].forecasts(), b[0].forecasts());
}

TEST(engine_hb, small_window_option_switches_series) {
    dataset data = synthetic_dataset();
    for (auto& r : data.records) {
        r.m.r_large_bps = 4e6;            // constant: RMSRE 0
        r.m.r_small_bps = r.epoch_index % 2 == 0 ? 1e6 : 3e6;  // oscillating
    }
    engine_options small;
    small.small_window = true;
    EXPECT_DOUBLE_EQ(evaluation_engine{}.run_one(data, "1-MA").traces[0].rmsre, 0.0);
    EXPECT_GT(evaluation_engine{small}.run_one(data, "1-MA").traces[0].rmsre, 1.0);
}

TEST(engine_hb, cov_vs_rmsre_produces_point_per_trace) {
    const auto data = synthetic_dataset();
    const auto pts = cov_vs_rmsre(data, "0.8-HW-LSO");
    EXPECT_EQ(pts.size(), 2u);
    for (const auto& p : pts) {
        EXPECT_GE(p.cov, 0.0);
        EXPECT_GE(p.rmsre, 0.0);
    }
}

TEST(headline, rmsre_headline_reads_the_inverse_ecdf) {
    // Sorted: 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.9 1.5 2.0. F(0.4) counts the 0.4.
    const std::vector<double> rmsres{0.9, 0.1, 0.4, 0.3, 2.0, 0.5, 0.2, 0.7, 1.5, 0.6};
    const rmsre_headline h = rmsre_headline_of(rmsres);
    EXPECT_EQ(h.n, 10u);
    EXPECT_EQ(h.median, 0.5);
    EXPECT_EQ(h.p90, 1.5);
    EXPECT_EQ(h.below_04, 0.4);
    EXPECT_EQ(rmsre_headline_of({}).n, 0u);
}

TEST(headline, fb_error_shares_use_the_figure_thresholds) {
    const std::vector<double> errors{-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 9.0, 12.0};
    const fb_error_shares s = fb_error_shares_of(errors);
    EXPECT_EQ(s.n, 8u);
    EXPECT_EQ(s.over, 4.0 / 8);      // E = 0 is not an overestimate
    EXPECT_EQ(s.over_2x, 3.0 / 8);   // 1, 9, 12
    EXPECT_EQ(s.over_10x, 2.0 / 8);  // 9, 12
    EXPECT_EQ(s.under_2x, 2.0 / 8);  // -2, -1
}

TEST(headline, path_classes_apply_the_thresholds_at_their_edges) {
    stream_predictor_summary hw;
    const std::vector<std::pair<int, double>> traces{
        {4, 0.49},                // one trace, mean 0.49, spread 0: stable
        {0, 0.1},  {0, 0.25},     // mean 0.175: predictable
        {1, 0.2},  {1, 0.2},      // mean exactly 0.2: stable
        {2, 0.25}, {2, 0.5},      // spread exactly 0.25: unstable
        {3, 0.5},  {3, 0.5}};     // mean exactly 0.5: unpredictable
    for (const auto& [path, r] : traces) hw.traces.push_back({path, 0, r, 1});
    const auto paths = classify_paths(hw);
    ASSERT_EQ(paths.size(), 5u);
    const std::vector<path_class> expected{path_class::predictable, path_class::stable,
                                           path_class::unstable, path_class::unpredictable,
                                           path_class::stable};
    for (std::size_t i = 0; i < paths.size(); ++i) {
        EXPECT_EQ(paths[i].path_id, static_cast<int>(i));
        EXPECT_EQ(paths[i].klass, expected[i]) << i << " " << to_string(paths[i].klass);
    }
    EXPECT_EQ(paths[0].traces, 2u);
    EXPECT_DOUBLE_EQ(paths[0].mean, 0.175);
    EXPECT_DOUBLE_EQ(paths[0].spread, 0.15);
    EXPECT_EQ(paths[4].traces, 1u);
    EXPECT_STREQ(to_string(path_class::unstable), "unstable errors");
}

}  // namespace
}  // namespace tcppred::analysis
