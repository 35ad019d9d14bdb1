// The streaming evaluation engine and its series-level scoring loop
// (analysis/evaluation.hpp): index and gap semantics of evaluate_series, the
// engine's warmup and outlier exclusion, gap handling for fault-flagged
// epochs, and the determinism contract (byte-identical results for any jobs
// value).
#include "analysis/evaluation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hb_predictors.hpp"
#include "core/lso.hpp"
#include "core/predictor.hpp"
#include "core/units.hpp"
#include "testbed/dataset.hpp"

namespace tcppred::analysis {
namespace {

using testbed::dataset;
using testbed::epoch_record;

core::history_predictor ma(std::size_t order) {
    return core::history_predictor(std::make_unique<core::moving_average>(order));
}

TEST(evaluate_series_fn, perfect_predictor_on_constant_series) {
    const std::vector<double> series(20, 5.0);
    const series_evaluation e = evaluate_series(series, ma(5));
    EXPECT_DOUBLE_EQ(e.rmsre, 0.0);
    EXPECT_EQ(e.forecasts(), 19u);  // warmup skips index 0
}

TEST(evaluate_series_fn, errors_align_with_indices) {
    // bps-scale values: relative_error clamps its denominator at
    // k_min_error_denominator_bps, so unit-scale toy numbers would hit the
    // floor instead of exercising the ratio.
    const std::vector<double> series{10e6, 20e6, 20e6};
    const series_evaluation e = evaluate_series(series, ma(1));
    ASSERT_EQ(e.errors.size(), 2u);
    EXPECT_EQ(e.indices[0], 1u);
    // Forecast 10M for actual 20M: E = (10M-20M)/10M = -1.
    EXPECT_DOUBLE_EQ(e.errors[0], -1.0);
    EXPECT_DOUBLE_EQ(e.errors[1], 0.0);
}

/// One path with one trace whose target-transfer throughputs are `series`.
dataset series_dataset(const std::vector<double>& series) {
    dataset data;
    testbed::path_profile p;
    p.name = "p0";
    data.paths.push_back(p);
    for (std::size_t e = 0; e < series.size(); ++e) {
        epoch_record r;
        r.epoch_index = static_cast<int>(e);
        r.m.that_s = 0.05;
        r.m.avail_bw_bps = 5e6;
        r.m.r_large_bps = series[e];
        data.records.push_back(r);
    }
    return data;
}

TEST(engine_walk, warmup_skips_initial_forecasts) {
    const dataset data = series_dataset(std::vector<double>(5, 1e6));
    EXPECT_EQ(evaluation_engine{}.run_one(data, "1-MA").traces.at(0).forecasts(), 4u);
    engine_options opts;
    opts.warmup = 3;
    const auto r = evaluation_engine{opts}.run_one(data, "1-MA");
    ASSERT_EQ(r.traces.size(), 1u);
    ASSERT_EQ(r.traces[0].forecasts(), 2u);
    EXPECT_EQ(r.traces[0].epochs[0].index, 3u);
}

TEST(engine_walk, excludes_outliers_when_requested) {
    std::vector<double> series(10, 10e6);
    series.push_back(100e6);  // outlier: a huge error for any predictor
    series.insert(series.end(), 5, 10e6);
    const dataset data = series_dataset(series);

    const auto with = evaluation_engine{}.run_one(data, "5-MA");

    engine_options drop;
    drop.exclude_outliers = true;
    const auto without = evaluation_engine{drop}.run_one(data, "5-MA");

    ASSERT_EQ(with.traces.size(), 1u);
    ASSERT_EQ(without.traces.size(), 1u);
    EXPECT_GT(with.traces[0].rmsre, without.traces[0].rmsre * 2.0);
    for (const auto& e : without.traces[0].epochs) EXPECT_NE(e.index, 10u);
}

TEST(evaluate_series_fn, lso_wrapper_beats_plain_on_shifted_series) {
    std::vector<double> series(15, 10.0);
    series.insert(series.end(), 15, 30.0);

    const series_evaluation plain = evaluate_series(series, ma(10));
    const core::history_predictor lso_proto(std::make_unique<core::lso_predictor>(
        std::make_unique<core::moving_average>(10)));
    const series_evaluation lso = evaluate_series(series, lso_proto);
    EXPECT_LT(lso.rmsre, plain.rmsre);
}

TEST(evaluate_series_fn, nan_samples_are_gaps_not_scores) {
    // A NaN mid-series is never scored and never pollutes the history.
    std::vector<double> series(6, 8.0);
    series[3] = std::numeric_limits<double>::quiet_NaN();
    const series_evaluation e = evaluate_series(series, ma(3));
    EXPECT_EQ(e.forecasts(), 4u);  // indices 1, 2, 4, 5
    EXPECT_DOUBLE_EQ(e.rmsre, 0.0);
    for (const std::size_t i : e.indices) EXPECT_NE(i, 3u);
}

/// 4 paths x 2 traces x 10 epochs with varied-but-deterministic values.
dataset grid_dataset() {
    dataset data;
    for (int path = 0; path < 4; ++path) {
        testbed::path_profile p;
        p.id = path;
        p.name = "p";
        p.name += std::to_string(path);
        p.forward = {net::hop_config{core::bits_per_second{10e6}, core::seconds{0.02}, 64}};
        p.reverse = {net::hop_config{core::bits_per_second{100e6}, core::seconds{0.02}, 64}};
        data.paths.push_back(p);
        for (int trace = 0; trace < 2; ++trace) {
            for (int e = 0; e < 10; ++e) {
                epoch_record r;
                r.path_id = path;
                r.trace_id = trace;
                r.epoch_index = e;
                r.m.phat = path % 2 == 0 ? 0.004 * (1 + e % 3) : 0.0;
                r.m.that_s = 0.04 + 0.005 * path;
                r.m.avail_bw_bps = 4e6 + 1e6 * path;
                r.m.ptilde = r.m.phat * 2;
                r.m.ttilde_s = r.m.that_s + 0.01;
                r.m.r_large_bps = 2e6 + 3e5 * ((e + path) % 4) + 1e5 * trace;
                r.m.r_small_bps = 1e6 + 1e5 * (e % 2);
                data.records.push_back(r);
            }
        }
    }
    return data;
}

TEST(engine_downsample, walks_every_kth_epoch) {
    const auto data = grid_dataset();
    for (const auto& [factor, walked] :
         std::vector<std::pair<std::size_t, std::vector<int>>>{
             {1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}, {3, {0, 3, 6, 9}}, {15, {0}}}) {
        engine_options opts;
        opts.downsample = factor;
        const auto fb = evaluation_engine{opts}.run_one(data, "fb:pftk");
        ASSERT_EQ(fb.traces.size(), 8u) << factor;
        for (const auto& t : fb.traces) {
            std::vector<int> epochs;
            for (const auto& e : t.epochs) epochs.push_back(e.rec->epoch_index);
            EXPECT_EQ(epochs, walked) << factor;
        }
    }
}

TEST(engine_downsample, rejects_factor_zero) {
    engine_options opts;
    opts.downsample = 0;
    EXPECT_THROW((void)evaluation_engine{opts}.run_one(grid_dataset(), "fb:pftk"),
                 std::invalid_argument);
    stream_eval_options sopts;
    sopts.engine = opts;
    EXPECT_THROW((void)evaluate_stream([](testbed::epoch_record&) { return false; },
                                       {"fb:pftk"}, sopts),
                 std::invalid_argument);
}

TEST(engine_faults, faulty_epochs_become_gaps_and_fallbacks) {
    dataset data = grid_dataset();
    // Path 0, trace 0, epoch 4: both the a-priori view and the transfer
    // measurement fault out.
    for (auto& r : data.records) {
        if (r.path_id == 0 && r.trace_id == 0 && r.epoch_index == 4) {
            r.m.fault_flags = testbed::fault_pathload_failed |
                              testbed::fault_transfer_aborted;
        }
    }
    const auto results =
        evaluation_engine{}.run(data,
                                std::vector<std::string>{"fb:pftk", "10-MA-LSO"});

    for (const auto& result : results) {
        for (const auto& t : result.traces) {
            for (const auto& e : t.epochs) {
                // The faulted epoch is never scored (its actual is missing).
                EXPECT_FALSE(e.rec->path_id == 0 && e.rec->trace_id == 0 &&
                             e.rec->epoch_index == 4)
                    << result.name;
            }
        }
    }

    // The faulted epoch's stale fallback prediction existed but was never
    // scored (no actual), so no scored epoch carries staleness.
    for (const auto& e : results[0].all_epochs()) EXPECT_EQ(e.staleness, 0u);

    const auto cond = summarize(results[0], false).conditioned;
    EXPECT_EQ(cond.n_faulty, 0u);
    EXPECT_GT(cond.n_clean, 0u);
}

TEST(engine_faults, apriori_fault_alone_scores_with_stale_inputs) {
    dataset data = grid_dataset();
    // Only the a-priori probing faults; the transfer itself succeeds, so FB
    // must score the epoch from its last good measurement (staleness 1).
    for (auto& r : data.records) {
        if (r.path_id == 1 && r.trace_id == 0 && r.epoch_index == 5) {
            r.m.fault_flags = testbed::fault_ping_degraded;
        }
    }
    const auto fb = evaluation_engine{}.run_one(data, "fb:pftk");
    bool found = false;
    for (const auto& e : fb.all_epochs()) {
        if (e.rec->path_id == 1 && e.rec->trace_id == 0 && e.rec->epoch_index == 5) {
            found = true;
            EXPECT_EQ(e.staleness, 1u);
        } else {
            EXPECT_EQ(e.staleness, 0u);
        }
    }
    EXPECT_TRUE(found);
    const auto cond = summarize(fb, false).conditioned;
    EXPECT_EQ(cond.n_faulty, 1u);
    EXPECT_EQ(cond.n_stale, 1u);
}

TEST(engine_determinism, byte_identical_for_any_jobs_value) {
    const auto data = grid_dataset();
    const std::vector<std::string> specs{"fb:pftk", "10-MA-LSO", "0.8-HW",
                                         "hybrid:0.8-HW-LSO", "NWS"};
    engine_options serial;
    serial.jobs = 1;
    const auto base = evaluation_engine{serial}.run(data, specs);

    for (const int jobs : {2, 4}) {
        engine_options par;
        par.jobs = jobs;
        const auto got = evaluation_engine{par}.run(data, specs);
        ASSERT_EQ(got.size(), base.size());
        for (std::size_t pj = 0; pj < base.size(); ++pj) {
            EXPECT_EQ(got[pj].name, base[pj].name);
            ASSERT_EQ(got[pj].traces.size(), base[pj].traces.size()) << jobs;
            for (std::size_t ti = 0; ti < base[pj].traces.size(); ++ti) {
                const auto& a = base[pj].traces[ti];
                const auto& b = got[pj].traces[ti];
                EXPECT_EQ(a.path_id, b.path_id);
                EXPECT_EQ(a.trace_id, b.trace_id);
                // Bitwise, not approximate: the determinism contract.
                EXPECT_EQ(a.rmsre, b.rmsre);
                ASSERT_EQ(a.epochs.size(), b.epochs.size());
                for (std::size_t ei = 0; ei < a.epochs.size(); ++ei) {
                    EXPECT_EQ(a.epochs[ei].predicted_bps, b.epochs[ei].predicted_bps);
                    EXPECT_EQ(a.epochs[ei].error, b.epochs[ei].error);
                }
            }
        }
    }
}

TEST(engine_contract, bad_spec_throws_before_touching_data) {
    const auto data = grid_dataset();
    EXPECT_THROW(evaluation_engine{}.run(
                     data, std::vector<std::string>{"10-MA", "10-XX"}),
                 core::predictor_spec_error);
    engine_options bad;
    bad.downsample = 0;
    EXPECT_THROW(evaluation_engine{bad}.run_one(data, "10-MA"),
                 std::invalid_argument);
}

TEST(engine_contract, short_traces_are_omitted_for_history_predictors) {
    dataset data;
    testbed::path_profile p;
    p.id = 0;
    p.name = "p0";
    data.paths.push_back(p);
    for (int e = 0; e < 2; ++e) {  // 2 epochs < history min_trace_length 3
        epoch_record r;
        r.path_id = 0;
        r.trace_id = 0;
        r.epoch_index = e;
        r.m.phat = 0.0;
        r.m.that_s = 0.05;
        r.m.avail_bw_bps = 5e6;
        r.m.r_large_bps = 2e6;
        r.m.r_small_bps = 1e6;
        data.records.push_back(r);
    }
    const auto results =
        evaluation_engine{}.run(data, std::vector<std::string>{"10-MA", "fb:pftk"});
    EXPECT_TRUE(results[0].traces.empty());   // HB: trace too short
    EXPECT_EQ(results[1].traces.size(), 1u);  // FB: scored from epoch 0
}

}  // namespace
}  // namespace tcppred::analysis
