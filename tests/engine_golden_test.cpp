// Golden regression test for the streaming evaluation engine: the Fig. 19
// headline numbers (FB per-trace RMSRE quantiles, HB P(RMSRE < 0.4)) on the
// two tiny campaigns, pinned BIT-EXACTLY as hex float literals. The values
// were captured from the legacy per-family evaluation loops the engine
// replaced, so this test is the permanent engine-vs-legacy equivalence
// check; the campaign generator's determinism contract (same config + seed
// -> byte-identical dataset) makes in-test regeneration safe.
//
// If a legitimate numerical change lands (e.g. a formula fix), re-capture
// with: build the repo, run `bench/fig19_fb_vs_hb` per campaign, and print
// the quantities below with %a.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/evaluation.hpp"
#include "analysis/stats.hpp"
#include "net/cross_traffic.hpp"
#include "testbed/campaign.hpp"

namespace tcppred::analysis {
namespace {

struct golden {
    double fb_median;    ///< ecdf::quantile(0.5) of FB per-trace RMSREs
    double fb_p90;       ///< ecdf::quantile(0.9) of FB per-trace RMSREs
    double ma_p_lt_04;   ///< ecdf.at(0.4) of 10-MA-LSO per-trace RMSREs
    double hw_p_lt_04;   ///< ecdf.at(0.4) of 0.8-HW-LSO per-trace RMSREs
    std::size_t traces;  ///< per-trace sample count behind the CDFs
};

/// The goldens were captured on datasets LOADED from the cached campaign
/// CSVs, whose serialized doubles differ from the in-memory campaign output
/// in the last bits — round-trip through the same format before evaluating.
testbed::dataset csv_round_trip(const testbed::dataset& data, const char* name) {
    const auto file = std::filesystem::temp_directory_path() / name;
    testbed::save_csv(data, file);
    const testbed::dataset loaded = testbed::load_csv(file);
    std::filesystem::remove(file);
    return loaded;
}

void check_campaign(const testbed::dataset& data, const golden& g) {
    // The scale is pinned in the config, NOT read from $REPRO_SCALE: the
    // goldens are only valid for the tiny campaigns.
    const std::vector<std::string> specs{"fb:pftk", "10-MA-LSO", "0.8-HW-LSO"};
    const auto results = evaluation_engine{}.run(data, specs);

    const auto fb_rmsres = results[0].trace_rmsres();
    ASSERT_EQ(fb_rmsres.size(), g.traces);
    const ecdf fb_cdf{std::vector<double>(fb_rmsres)};
    EXPECT_EQ(fb_cdf.quantile(0.5), g.fb_median);
    EXPECT_EQ(fb_cdf.quantile(0.9), g.fb_p90);

    const auto ma_rmsres = results[1].trace_rmsres();
    ASSERT_EQ(ma_rmsres.size(), g.traces);
    EXPECT_EQ(ecdf{std::vector<double>(ma_rmsres)}.at(0.4), g.ma_p_lt_04);

    const auto hw_rmsres = results[2].trace_rmsres();
    ASSERT_EQ(hw_rmsres.size(), g.traces);
    EXPECT_EQ(ecdf{std::vector<double>(hw_rmsres)}.at(0.4), g.hw_p_lt_04);

    // The parallel engine must reproduce the serial numbers bitwise
    // (determinism contract, DESIGN.md §6).
    for (const int jobs : {2, 4}) {
        engine_options par;
        par.jobs = jobs;
        const auto pr = evaluation_engine{par}.run(data, specs);
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(pr[i].traces.size(), results[i].traces.size()) << jobs;
            for (std::size_t t = 0; t < results[i].traces.size(); ++t) {
                EXPECT_EQ(pr[i].traces[t].rmsre, results[i].traces[t].rmsre) << jobs;
            }
        }
    }

    // The one-pass streamed evaluation (evaluate_stream) must also hit the
    // goldens bitwise when fed the same records in traces() order — the
    // equivalence the past-RAM analysis path rests on.
    std::vector<const testbed::epoch_record*> ordered;
    for (const auto& [key, recs] : data.traces()) {
        ordered.insert(ordered.end(), recs.begin(), recs.end());
    }
    std::size_t pos = 0;
    const auto streamed = evaluate_stream(
        [&](testbed::epoch_record& out) {
            if (pos >= ordered.size()) return false;
            out = *ordered[pos++];
            return true;
        },
        specs);
    ASSERT_EQ(streamed.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(streamed[i].traces.size(), results[i].traces.size());
        for (std::size_t t = 0; t < results[i].traces.size(); ++t) {
            EXPECT_EQ(streamed[i].traces[t].rmsre, results[i].traces[t].rmsre);
        }
    }
    const auto s_fb = streamed[0].trace_rmsres();
    const ecdf s_fb_cdf{std::vector<double>(s_fb)};
    EXPECT_EQ(s_fb_cdf.quantile(0.5), g.fb_median);
    EXPECT_EQ(s_fb_cdf.quantile(0.9), g.fb_p90);
    EXPECT_EQ(ecdf{std::vector<double>(streamed[1].trace_rmsres())}.at(0.4),
              g.ma_p_lt_04);
    EXPECT_EQ(ecdf{std::vector<double>(streamed[2].trace_rmsres())}.at(0.4),
              g.hw_p_lt_04);
}

TEST(engine_golden, campaign1_tiny_headline_numbers) {
    const auto data = csv_round_trip(
        testbed::run_campaign(testbed::campaign1_config(testbed::campaign_scale::tiny)),
        "engine_golden_c1.csv");
    check_campaign(data, golden{0x1.63fa5d235cb4ep+0,  // FB median RMSRE 1.3905
                                0x1.e66bc32cafe19p+1,  // FB p90 RMSRE 3.8002
                                0x1.cp-1,              // P(10-MA-LSO < 0.4) = 0.875
                                0x1.8p-1,              // P(0.8-HW-LSO < 0.4) = 0.75
                                8});
}

TEST(engine_golden, campaign2_tiny_headline_numbers) {
    const auto data = csv_round_trip(
        testbed::run_campaign(testbed::campaign2_config(testbed::campaign_scale::tiny)),
        "engine_golden_c2.csv");
    check_campaign(data, golden{0x1.4b2642668b93bp+0,  // FB median RMSRE 1.2936
                                0x1.a51a66be21467p+0,  // FB p90 RMSRE 1.6449
                                0x1.8p-1,              // P(10-MA-LSO < 0.4) = 0.75
                                0x1p+0,                // P(0.8-HW-LSO < 0.4) = 1.0
                                4});
}

// Fluid-cross-traffic goldens (DESIGN.md §13.5). The fluid model replaces
// open-loop cross packets with an aggregate rate at the link, so its epochs
// are legitimately different simulations — these goldens are pinned from
// the first fluid implementation, not carried over from packet mode. The
// packet-mode goldens above are untouched: fluid mode is opt-in and the
// headline numbers stay in family (medians within ~10% of packet mode),
// which is the regression signal these pins protect.

TEST(engine_golden, campaign1_tiny_fluid_headline_numbers) {
    auto cfg = testbed::campaign1_config(testbed::campaign_scale::tiny);
    cfg.epoch.cross = net::cross_model::fluid;
    const auto data =
        csv_round_trip(testbed::run_campaign(cfg), "engine_golden_c1_fluid.csv");
    check_campaign(data, golden{0x1.304929ee0e518p+0,  // FB median RMSRE 1.1886
                                0x1.18d2a3953faeep+2,  // FB p90 RMSRE 4.3879
                                0x1.cp-1,              // P(10-MA-LSO < 0.4) = 0.875
                                0x1.cp-1,              // P(0.8-HW-LSO < 0.4) = 0.875
                                8});
}

TEST(engine_golden, campaign2_tiny_fluid_headline_numbers) {
    auto cfg = testbed::campaign2_config(testbed::campaign_scale::tiny);
    cfg.epoch.cross = net::cross_model::fluid;
    const auto data =
        csv_round_trip(testbed::run_campaign(cfg), "engine_golden_c2_fluid.csv");
    check_campaign(data, golden{0x1.200452bca2855p+0,  // FB median RMSRE 1.1251
                                0x1.b0d43a12f381dp+0,  // FB p90 RMSRE 1.6907
                                0x1.8p-1,              // P(10-MA-LSO < 0.4) = 0.75
                                0x1.8p-1,              // P(0.8-HW-LSO < 0.4) = 0.75
                                4});
}

// Option-variant goldens. Every engine_options switch changes how a record
// becomes predictor inputs or which epochs are scored; each variant's digest
// pins every per-trace RMSRE and every conditioned field bit-exactly, and
// each variant's one-pass evaluate_stream must equal summarize() of the
// in-memory engine bitwise. Captured before the engine and evaluate_stream
// shared one per-trace pipeline, so they pin that refactor's behaviour.

/// Hexfloat rendering of a summary: per trace (path, trace, epochs, RMSRE),
/// traces_unscored, the six conditioned fields, then any kept epoch errors.
std::string render(const stream_predictor_summary& s) {
    std::string out = s.name;
    const auto num = [&out](double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, ",%a", v);
        out += std::isnan(v) ? std::string(",nan") : std::string(buf);
    };
    for (const auto& t : s.traces) {
        out += ";" + std::to_string(t.path_id) + "/" + std::to_string(t.trace_id) +
               "/" + std::to_string(t.epochs);
        num(t.rmsre);
    }
    const conditioned_rmsre& c = s.conditioned;
    out += ";unscored=" + std::to_string(s.traces_unscored) +
           ";n=" + std::to_string(c.n_clean) + "/" + std::to_string(c.n_faulty) +
           "/" + std::to_string(c.n_stale);
    num(c.rmsre_clean);
    num(c.rmsre_faulty);
    num(c.rmsre_stale);
    if (!s.epoch_errors.empty()) out += ";errors";
    for (const double e : s.epoch_errors) num(e);
    return out;
}

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

struct variant {
    const char* name;
    engine_options opts;
    std::uint64_t digest;  ///< fnv1a of the specs' renders, epoch errors excluded
};

std::vector<variant> option_variants(const std::vector<std::uint64_t>& digests) {
    std::vector<variant> v(7);
    v[0] = {"default", {}, 0};
    v[1].name = "smooth_inputs";
    v[1].opts.smooth_inputs = true;
    v[2].name = "downsample_3";
    v[2].opts.downsample = 3;
    v[3].name = "exclude_outliers";
    v[3].opts.exclude_outliers = true;
    v[4].name = "use_during_flow";
    v[4].opts.use_during_flow = true;
    v[5].name = "small_window";
    v[5].opts.small_window = true;
    v[5].opts.predictor.window_bytes = 20 * 1024;
    v[6].name = "warmup_5";
    v[6].opts.warmup = 5;
    for (std::size_t i = 0; i < v.size(); ++i) v[i].digest = digests.at(i);
    return v;
}

void check_variants(const testbed::dataset& data, const std::vector<variant>& variants) {
    const std::vector<std::string> specs{"fb:pftk", "10-MA-LSO", "0.8-HW-LSO"};
    std::vector<const testbed::epoch_record*> ordered;
    for (const auto& [key, recs] : data.traces()) {
        ordered.insert(ordered.end(), recs.begin(), recs.end());
    }
    for (const variant& v : variants) {
        SCOPED_TRACE(v.name);
        const auto results = evaluation_engine{v.opts}.run(data, specs);

        std::size_t pos = 0;
        stream_eval_options sopts;
        sopts.engine = v.opts;
        sopts.keep_epoch_errors = {0, 1, 2};
        const auto streamed = evaluate_stream(
            [&](testbed::epoch_record& out) {
                if (pos >= ordered.size()) return false;
                out = *ordered[pos++];
                return true;
            },
            specs, sopts);
        ASSERT_EQ(streamed.size(), results.size());

        std::string all;
        for (std::size_t i = 0; i < results.size(); ++i) {
            stream_predictor_summary expected = summarize(results[i], true);
            EXPECT_EQ(render(streamed[i]), render(expected)) << specs[i];
            expected.epoch_errors.clear();
            all += render(expected) + "\n";
        }
        EXPECT_EQ(fnv1a(all), v.digest)
            << std::hex << "0x" << fnv1a(all) << std::dec << "\n" << all;
    }
}

TEST(engine_golden, campaign1_tiny_option_variants) {
    const auto data = csv_round_trip(
        testbed::run_campaign(testbed::campaign1_config(testbed::campaign_scale::tiny)),
        "engine_golden_c1_variants.csv");
    check_variants(data, option_variants({0x34553f950a146620, 0x335827e496906a07,
                                          0x01c7831f5319d462, 0xcf55c81a94e3c3f2,
                                          0x66137862687fa8d0, 0xf8820da55671a115,
                                          0x87b0fad35063b246}));
}

TEST(engine_golden, campaign1_tiny_faulted_option_variants) {
    auto cfg = testbed::campaign1_config(testbed::campaign_scale::tiny);
    cfg.faults = sim::fault_profile::parse("pathload=0.3,abort=0.2");
    const auto data =
        csv_round_trip(testbed::run_campaign(cfg), "engine_golden_c1_faulted.csv");

    // The fault profile must actually reach the conditioned split.
    const auto fb = summarize(evaluation_engine{}.run_one(data, "fb:pftk"), false);
    EXPECT_GT(fb.conditioned.n_faulty, 0u);
    EXPECT_GT(fb.conditioned.n_stale, 0u);

    check_variants(data, option_variants({0x6f4c80001cd5c9fd, 0xad91a83442b7be1d,
                                          0xcf906d7a37f358f2, 0xb2ce25c2f7d5e372,
                                          0xe8c4beeff35930fa, 0x8d2f951824ceb3b8,
                                          0xe60fc865b10f5c1a}));
}

}  // namespace
}  // namespace tcppred::analysis
