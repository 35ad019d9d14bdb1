// Golden regression test for the streaming evaluation engine: the Fig. 19
// headline numbers (FB per-trace RMSRE quantiles, HB P(RMSRE < 0.4)) on the
// two tiny campaigns, pinned BIT-EXACTLY as hex float literals. The values
// were captured from the legacy per-family evaluation loops the engine
// replaced, so this test is the permanent engine-vs-legacy equivalence
// check; the FB medians were re-pinned once, when every quantile became the
// inverse ECDF (sorted[⌈qn⌉−1], one order statistic below the old
// sorted[⌊qn⌋] for these even trace counts). The campaign generator's
// determinism contract (same config + seed -> byte-identical dataset) makes
// in-test regeneration safe.
//
// If a legitimate numerical change lands (e.g. a formula fix), re-capture
// with: build the repo, run `bench/fig19_fb_vs_hb` per campaign, and print
// the quantities below with %a.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/evaluation.hpp"
#include "net/cross_traffic.hpp"
#include "testbed/campaign.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::analysis {
namespace {

struct golden {
    double fb_median;    ///< rmsre_headline median of FB per-trace RMSREs
    double fb_p90;       ///< rmsre_headline p90 of FB per-trace RMSREs
    double ma_p_lt_04;   ///< rmsre_headline F(0.4) of 10-MA-LSO
    double hw_p_lt_04;   ///< rmsre_headline F(0.4) of 0.8-HW-LSO
    std::size_t traces;  ///< per-trace sample count behind the CDFs
};

/// Every field of a headline struct as bits, so EXPECT_EQ compares bitwise.
std::vector<std::uint64_t> bits(const rmsre_headline& h) {
    return {h.n, std::bit_cast<std::uint64_t>(h.median), std::bit_cast<std::uint64_t>(h.p90),
            std::bit_cast<std::uint64_t>(h.below_04)};
}
std::vector<std::uint64_t> bits(const fb_error_shares& s) {
    return {s.n, std::bit_cast<std::uint64_t>(s.over), std::bit_cast<std::uint64_t>(s.over_2x),
            std::bit_cast<std::uint64_t>(s.over_10x), std::bit_cast<std::uint64_t>(s.under_2x)};
}
std::vector<std::uint64_t> bits(const std::vector<path_predictability>& paths) {
    std::vector<std::uint64_t> out;
    for (const auto& p : paths) {
        out.insert(out.end(), {static_cast<std::uint64_t>(p.path_id), p.traces,
                               std::bit_cast<std::uint64_t>(p.mean),
                               std::bit_cast<std::uint64_t>(p.spread),
                               static_cast<std::uint64_t>(p.klass)});
    }
    return out;
}

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

    const rmsre_headline fb = rmsre_headline_of(results[0].trace_rmsres());
    ASSERT_EQ(fb.n, g.traces);
    EXPECT_EQ(fb.median, g.fb_median);
    EXPECT_EQ(fb.p90, g.fb_p90);

    const rmsre_headline ma = rmsre_headline_of(results[1].trace_rmsres());
    ASSERT_EQ(ma.n, g.traces);
    EXPECT_EQ(ma.below_04, g.ma_p_lt_04);

    const rmsre_headline hw = rmsre_headline_of(results[2].trace_rmsres());
    ASSERT_EQ(hw.n, g.traces);
    EXPECT_EQ(hw.below_04, g.hw_p_lt_04);

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
    stream_eval_options sopts;
    sopts.keep_epoch_errors = {0};
    const auto streamed = evaluate_stream(
        [&](testbed::epoch_record& out) {
            if (pos >= ordered.size()) return false;
            out = *ordered[pos++];
            return true;
        },
        specs, sopts);
    ASSERT_EQ(streamed.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(streamed[i].traces.size(), results[i].traces.size());
        for (std::size_t t = 0; t < results[i].traces.size(); ++t) {
            EXPECT_EQ(streamed[i].traces[t].rmsre, results[i].traces[t].rmsre);
        }
        // Every headline struct a report prints is bitwise the same from
        // either evaluation path.
        EXPECT_EQ(bits(rmsre_headline_of(streamed[i].trace_rmsres())),
                  bits(rmsre_headline_of(results[i].trace_rmsres())))
            << specs[i];
    }
    EXPECT_EQ(bits(fb_error_shares_of(streamed[0].epoch_errors)),
              bits(fb_error_shares_of(results[0].epoch_errors())));
    EXPECT_EQ(bits(classify_paths(streamed[2])),
              bits(classify_paths(summarize(results[2], false))));
}

TEST(engine_golden, campaign1_tiny_headline_numbers) {
    const auto data = csv_round_trip(
        testbed::run_campaign(testbed::campaign1_config(testbed::campaign_scale::tiny)),
        "engine_golden_c1.csv");
    check_campaign(data, golden{0x1.0044f982c5a2ap+0,  // FB median RMSRE 1.0011
                                0x1.e66bc32cafe19p+1,  // FB p90 RMSRE 3.8002
                                0x1.cp-1,              // P(10-MA-LSO < 0.4) = 0.875
                                0x1.8p-1,              // P(0.8-HW-LSO < 0.4) = 0.75
                                8});
}

TEST(engine_golden, campaign2_tiny_headline_numbers) {
    const auto data = csv_round_trip(
        testbed::run_campaign(testbed::campaign2_config(testbed::campaign_scale::tiny)),
        "engine_golden_c2.csv");
    check_campaign(data, golden{0x1.1cc0bc1c761ffp+0,  // FB median RMSRE 1.1123
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
    check_campaign(data, golden{0x1.99745ec5612fp-1,   // FB median RMSRE 0.7997
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
    check_campaign(data, golden{0x1.b0997a65d993fp-1,  // FB median RMSRE 0.8449
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
        // Appended piecewise: GCC 12 without LTO raises a false -Wrestrict
        // on ";" + std::to_string(...).
        out += ';';
        out += std::to_string(t.path_id);
        out += '/';
        out += std::to_string(t.trace_id);
        out += '/';
        out += std::to_string(t.epochs);
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
    v[6].name = "warmup_5";
    v[6].opts.warmup = 5;
    for (std::size_t i = 0; i < v.size(); ++i) v[i].digest = digests.at(i);
    return v;
}

/// The specs the option-variant goldens were first pinned for.
const std::vector<std::string> k_headline_specs{"fb:pftk", "10-MA-LSO", "0.8-HW-LSO"};

/// Every predictor family at once: FB, HB with and without LSO, the NWS
/// selector, AR under LSO and the FB+HB hybrid, so several LSO wrappers walk
/// each trace side by side.
const std::vector<std::string> k_full_mix{"fb:pftk", "10-MA",      "10-MA-LSO",
                                          "0.8-HW",  "0.8-HW-LSO", "NWS",
                                          "5-AR-LSO", "hybrid:0.8-HW-LSO"};

void check_variants(const testbed::dataset& data, const std::vector<std::string>& specs,
                    const std::vector<variant>& variants) {
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
        for (std::size_t i = 0; i < specs.size(); ++i) {
            sopts.keep_epoch_errors.push_back(i);
        }
        const auto streamed = evaluate_stream(
            [&](testbed::epoch_record& out) {
                if (pos >= ordered.size()) return false;
                out = *ordered[pos++];
                return true;
            },
            specs, sopts);
        ASSERT_EQ(streamed.size(), results.size());
        engine_options par = v.opts;
        par.jobs = 2;
        const auto parallel = evaluation_engine{par}.run(data, specs);

        std::string all;
        for (std::size_t i = 0; i < results.size(); ++i) {
            stream_predictor_summary expected = summarize(results[i], true);
            EXPECT_EQ(render(streamed[i]), render(expected)) << specs[i];
            EXPECT_EQ(render(summarize(parallel[i], true)), render(expected)) << specs[i];
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
    check_variants(data, k_headline_specs,
                   option_variants({0x34553f950a146620, 0x335827e496906a07,
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

    check_variants(data, k_headline_specs,
                   option_variants({0x6f4c80001cd5c9fd, 0xad91a83442b7be1d,
                                    0xcf906d7a37f358f2, 0xb2ce25c2f7d5e372,
                                    0xe8c4beeff35930fa, 0x8d2f951824ceb3b8,
                                    0xe60fc865b10f5c1a}));
}

// Full-mix goldens: the same option variants over k_full_mix, captured
// before LSO wrappers of one trace shared a filter, so they pin that the
// sharing changed no output.

TEST(engine_golden, campaign1_tiny_full_mix) {
    const auto data = csv_round_trip(
        testbed::run_campaign(testbed::campaign1_config(testbed::campaign_scale::tiny)),
        "engine_golden_c1_full_mix.csv");
    check_variants(data, k_full_mix,
                   option_variants({0xf6ad91e26b3dc33c, 0xfb68bc27ab204a6a,
                                    0xd7e54c13fa93cd9b, 0xbe822377373bdc2b,
                                    0x2ac05273f802dc42, 0xd4fc850a41a64980,
                                    0x3cffd00ffa68ec13}));
}

TEST(engine_golden, campaign1_tiny_faulted_full_mix) {
    auto cfg = testbed::campaign1_config(testbed::campaign_scale::tiny);
    cfg.faults = sim::fault_profile::parse("pathload=0.3,abort=0.2");
    const auto data = csv_round_trip(testbed::run_campaign(cfg),
                                     "engine_golden_c1_faulted_full_mix.csv");
    check_variants(data, k_full_mix,
                   option_variants({0x3aee047a80c1b974, 0x4d8414b80b4f0c84,
                                    0xd8c6e99fc0b734fe, 0x9a9c7f20af6e9186,
                                    0xcdffe62e7b6746c6, 0xfa860c0c79621b4e,
                                    0x5763bfeacda07be9}));
}

// FB-kind goldens: the option variants over the three lossy-branch choices
// the goldens above do not run (fb:pftk is in every mix), captured before
// the staleness fallback and the min(W/T̂, Â)-only kind moved into
// formula_predictor and fb_predict, so they pin that the move changed no
// output.

const std::vector<std::string> k_other_fb_kinds{"fb:sqrt", "fb:pftk-full", "fb:minwa"};

TEST(engine_golden, campaign1_tiny_fb_kinds) {
    const auto data = csv_round_trip(
        testbed::run_campaign(testbed::campaign1_config(testbed::campaign_scale::tiny)),
        "engine_golden_c1_fb_kinds.csv");
    check_variants(data, k_other_fb_kinds,
                   option_variants({0xf61a59c6c578b108, 0x9065be973c793315,
                                    0xa4c813249503edd0, 0x3debcb540ddd60b1,
                                    0x12df864b91e5a7dd, 0x3f85dd8aa2f49fae,
                                    0xcb2d969b1d13d1e2}));
}

TEST(engine_golden, campaign1_tiny_faulted_fb_kinds) {
    auto cfg = testbed::campaign1_config(testbed::campaign_scale::tiny);
    cfg.faults = sim::fault_profile::parse("pathload=0.3,abort=0.2");
    const auto data = csv_round_trip(testbed::run_campaign(cfg),
                                     "engine_golden_c1_faulted_fb_kinds.csv");
    check_variants(data, k_other_fb_kinds,
                   option_variants({0xf1bd16969ef2b339, 0xca1fd6ae8a9c81a0,
                                    0x88b43bd2295481fe, 0xe7c1a9c58868c4b4,
                                    0x25764d4d524ff921, 0x807f5d3884be2792,
                                    0xf6684f0271025883}));
}

// The simulator revision. testbed::k_simulator_revision rides in every
// campaign fingerprint, so journals, stores and figure caches written by
// code of another revision are refused. It must move with the simulator's
// output: when a digest below changes, the campaign bytes changed, so bump
// testbed::k_simulator_revision and re-pin the revision and the digests
// here in the same commit (DESIGN.md §13.6). A change that keeps every CSV
// byte but moves the store (its `events` column) bumps the revision alone.

std::string csv_text(const testbed::dataset& data, const char* name) {
    const auto file = std::filesystem::temp_directory_path() / name;
    testbed::save_csv(data, file);
    std::ifstream in(file, std::ios::binary);
    std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    std::filesystem::remove(file);
    return text;
}

TEST(engine_golden, simulator_revision_pins_the_tiny_campaign_csvs) {
    constexpr int k_revision = 3;
    struct pin {
        int campaign;
        net::cross_model model;
        std::uint64_t csv_fnv1a;
    };
    constexpr pin k_pins[] = {
        {1, net::cross_model::packet, 0xbcc274816ca1b5ce},
        {1, net::cross_model::fluid, 0xefc3828a77e5cc6c},
        {2, net::cross_model::packet, 0x2ae09d48f8996867},
        {2, net::cross_model::fluid, 0x979927da21df072c},
    };
    EXPECT_EQ(testbed::k_simulator_revision, k_revision)
        << "testbed::k_simulator_revision moved: re-pin k_revision and the tiny "
           "campaign CSV digests below for the new revision";
    for (const pin& p : k_pins) {
        const bool fluid = p.model == net::cross_model::fluid;
        auto cfg = p.campaign == 1 ? testbed::campaign1_config(testbed::campaign_scale::tiny)
                                   : testbed::campaign2_config(testbed::campaign_scale::tiny);
        cfg.epoch.cross = p.model;
        const std::uint64_t digest =
            fnv1a(csv_text(testbed::run_campaign(cfg), "engine_golden_revision.csv"));
        EXPECT_EQ(digest, p.csv_fnv1a)
            << "the tiny campaign-" << p.campaign << " CSV under "
            << (fluid ? "fluid" : "packet") << " cross traffic changed (fnv1a now 0x"
            << std::hex << digest << std::dec
            << "): bump testbed::k_simulator_revision (src/testbed/checkpoint.hpp) and "
               "re-pin this test";
    }
}

}  // namespace
}  // namespace tcppred::analysis
