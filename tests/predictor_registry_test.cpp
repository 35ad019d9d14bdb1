#include "core/predictor_registry.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_selector.hpp"

namespace tcppred::core {
namespace {

TEST(make_predictor_factory, every_documented_spec_round_trips) {
    // spec -> canonical name() ("fb" is shorthand, "NWS" names its set size,
    // a hybrid names its k unless it is the default 3 — every other spec is
    // its own name).
    const std::vector<std::pair<std::string, std::string>> specs{
        {"fb", "fb:pftk"},
        {"fb:pftk", "fb:pftk"},
        {"fb:pftk-full", "fb:pftk-full"},
        {"fb:sqrt", "fb:sqrt"},
        {"fb:minwa", "fb:minwa"},
        {"1-MA", "1-MA"},
        {"10-MA", "10-MA"},
        {"0.8-EWMA", "0.8-EWMA"},
        {"0.5-HW", "0.5-HW"},
        {"4-AR", "4-AR"},
        {"10-MA-LSO", "10-MA-LSO"},
        {"0.8-HW-LSO", "0.8-HW-LSO"},
        {"4-AR-LSO", "4-AR-LSO"},
        {"NWS", "NWS-4"},
        {"hybrid:0.8-HW-LSO", "hybrid:0.8-HW-LSO"},
        {"hybrid:10-MA:5", "hybrid:10-MA:5"},
        {"hybrid:10-MA:2.50", "hybrid:10-MA:2.5"},
        {"hybrid:10-MA:3", "hybrid:10-MA"},
    };
    for (const auto& [spec, canonical] : specs) {
        const auto p = make_predictor(spec);
        ASSERT_NE(p, nullptr) << spec;
        EXPECT_EQ(p->name(), canonical) << spec;
        // A name is a spec for the same predictor (the serve daemon answers
        // PREDICT by either), except NWS's, which counts its candidates.
        if (spec != "NWS") {
            EXPECT_EQ(make_predictor(canonical)->name(), canonical) << spec;
        }
    }
}

TEST(make_predictor_factory, clone_empty_preserves_kind_and_parameters) {
    for (const char* spec :
         {"fb:sqrt", "10-MA", "0.8-EWMA", "0.5-HW", "4-AR-LSO", "NWS",
          "hybrid:0.8-HW-LSO"}) {
        const auto p = make_predictor(spec);
        const auto clone = p->clone_empty();
        EXPECT_EQ(clone->name(), p->name()) << spec;
        EXPECT_EQ(clone->min_trace_length(), p->min_trace_length()) << spec;
    }
}

TEST(make_predictor_factory, fresh_history_predictor_is_unusable) {
    for (const char* spec : {"10-MA", "0.8-HW-LSO", "4-AR", "NWS"}) {
        auto p = make_predictor(spec);
        const prediction before = p->predict(epoch_inputs::absent());
        EXPECT_FALSE(before.usable()) << spec;
        EXPECT_EQ(before.status, prediction_status::no_history) << spec;
        EXPECT_TRUE(std::isnan(before.value_bps)) << spec;

        p->observe(5e6);
        p->observe(5e6);
        const prediction after = p->predict(epoch_inputs::absent());
        EXPECT_TRUE(after.usable()) << spec;
        EXPECT_GT(after.value_bps, 0.0) << spec;

        // ... and a fresh clone starts over with no history.
        const prediction cloned =
            p->clone_empty()->predict(epoch_inputs::absent());
        EXPECT_FALSE(cloned.usable()) << spec;
    }
}

TEST(make_predictor_factory, config_controls_shared_parameters) {
    predictor_config cfg;
    cfg.window_bytes = 20 * 1024;
    const auto p = make_predictor("fb:pftk", cfg);
    path_measurement m;
    m.rtt = seconds{0.05};
    m.loss_rate = probability{0.0};
    m.avail_bw = bits_per_second{50e6};
    // Lossless branch with a tiny window: min(W/T, A) = W/T = 20KB*8/0.05.
    const prediction pred = p->predict(epoch_inputs::valid(m));
    ASSERT_TRUE(pred.usable());
    EXPECT_EQ(pred.inputs_used.source, prediction_source::window_bound);
    EXPECT_NEAR(pred.value_bps, 20 * 1024 * 8 / 0.05, 1.0);
}

/// The standard NWS candidate set built by hand under one LSO config.
std::unique_ptr<predictor> nws_by_hand(lso_config lso) {
    std::vector<std::unique_ptr<hb_predictor>> set;
    set.push_back(std::make_unique<lso_predictor>(std::make_unique<moving_average>(5), lso));
    set.push_back(std::make_unique<lso_predictor>(std::make_unique<moving_average>(10), lso));
    set.push_back(std::make_unique<lso_predictor>(std::make_unique<ewma>(0.5), lso));
    set.push_back(
        std::make_unique<lso_predictor>(std::make_unique<holt_winters>(0.8, 0.2), lso));
    return std::make_unique<history_predictor>(
        std::make_unique<adaptive_selector>(std::move(set), 0.9));
}

TEST(make_predictor_factory, nws_honours_lso_config) {
    predictor_config cfg;
    cfg.lso = lso_config{0.2, 0.3, 3};
    const auto nws = make_predictor("NWS", cfg)->clone_empty();
    const auto want = nws_by_hand(cfg.lso);
    const auto default_lso = nws_by_hand(lso_config{});

    // 25 % level shifts and 35 % spikes: between the tuned and the default
    // thresholds, so the two LSO configs clean the series differently.
    std::vector<double> series;
    for (int block = 0; block < 8; ++block) {
        const double level = block % 2 == 0 ? 100.0 : 125.0;
        for (int i = 0; i < 8; ++i) series.push_back(level * (1.0 + 0.01 * (i % 3)));
        series.push_back(level * 1.35);
    }
    const auto bits = [](const std::unique_ptr<predictor>& p) {
        return std::bit_cast<std::uint64_t>(p->predict(epoch_inputs::absent()).value_bps);
    };
    bool lso_matters = false;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const std::uint64_t got = bits(nws);
        ASSERT_EQ(got, bits(want)) << "step " << i;
        lso_matters = lso_matters || got != bits(default_lso);
        for (const auto* p : {&nws, &want, &default_lso}) (*p)->observe(series[i]);
    }
    EXPECT_TRUE(lso_matters);
}

TEST(make_predictor_factory, rejects_malformed_specs_with_payload) {
    for (const char* bad : {"", "MA", "10-XX", "x-MA", "10x-MA", "-MA", "10-",
                            "fb:bogus", "0-MA", "1.5-EWMA", "hybrid:",
                            "hybrid:MA", "hybrid:10-MA:0", "hybrid:10-MA:x",
                            // std::stod reads these, but no range check catches NaN.
                            "nan-EWMA", "-nan-HW", "inf-EWMA", "hybrid:10-MA:nan",
                            "hybrid:10-MA:inf"}) {
        try {
            [[maybe_unused]] const auto p = make_predictor(bad);
            FAIL() << "spec '" << bad << "' should have been rejected";
        } catch (const predictor_spec_error& e) {
            EXPECT_EQ(e.spec(), bad);
            EXPECT_NE(std::string(e.what()).find("bad predictor spec"),
                      std::string::npos);
        }
    }
}

TEST(make_predictor_factory, spec_error_is_an_invalid_argument) {
    // Callers that only know std::invalid_argument still catch it.
    EXPECT_THROW(make_predictor("nonsense"), std::invalid_argument);
}

}  // namespace
}  // namespace tcppred::core
