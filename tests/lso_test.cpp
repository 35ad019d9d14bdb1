#include "core/lso.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/adaptive_selector.hpp"
#include "core/ar_predictor.hpp"
#include "core/predictor_registry.hpp"
#include "sim/rng.hpp"

namespace tcppred::core {
namespace {

std::vector<double> with_level_shift() {
    std::vector<double> s(10, 10.0);
    s.insert(s.end(), 10, 20.0);  // +100% shift at index 10
    return s;
}

TEST(lso_filter, detects_increasing_level_shift) {
    lso_filter f;
    for (const double x : with_level_shift()) f.observe(x);
    ASSERT_EQ(f.shift_indices().size(), 1u);
    EXPECT_EQ(f.shift_indices()[0], 10u);
    // Cleaned history only contains post-shift samples.
    for (const auto& s : f.cleaned()) EXPECT_DOUBLE_EQ(s.value, 20.0);
}

TEST(lso_filter, detects_decreasing_level_shift) {
    lso_filter f;
    for (int i = 0; i < 10; ++i) f.observe(30.0);
    for (int i = 0; i < 10; ++i) f.observe(15.0);
    ASSERT_EQ(f.shift_indices().size(), 1u);
    EXPECT_EQ(f.shift_indices()[0], 10u);
}

TEST(lso_filter, small_shift_below_gamma_is_ignored) {
    lso_filter f(lso_config{0.3, 0.4});
    for (int i = 0; i < 10; ++i) f.observe(10.0);
    for (int i = 0; i < 10; ++i) f.observe(11.0);  // +10% < gamma
    EXPECT_TRUE(f.shift_indices().empty());
}

TEST(lso_filter, isolated_spike_is_outlier_not_shift) {
    lso_filter f;
    std::vector<double> s(10, 10.0);
    s.push_back(30.0);  // spike
    s.insert(s.end(), 5, 10.0);
    for (const double x : s) f.observe(x);
    EXPECT_TRUE(f.shift_indices().empty());
    ASSERT_EQ(f.outlier_indices().size(), 1u);
    EXPECT_EQ(f.outlier_indices()[0], 10u);
}

TEST(lso_filter, shift_needs_confirmation_samples) {
    // Immediately after a jump there are too few new-level samples: the
    // paper's condition 3 (k + 2 <= n) defers the shift decision.
    lso_filter f;
    for (int i = 0; i < 10; ++i) f.observe(10.0);
    f.observe(20.0);
    EXPECT_TRUE(f.shift_indices().empty());
    f.observe(20.0);
    f.observe(20.0);
    EXPECT_EQ(f.shift_indices().size(), 1u);
}

TEST(lso_filter, noisy_stationary_series_has_no_detections) {
    lso_filter f;
    // +/-5% alternation around 100: well below both thresholds.
    for (int i = 0; i < 50; ++i) f.observe(100.0 + (i % 2 == 0 ? 5.0 : -5.0));
    EXPECT_TRUE(f.shift_indices().empty());
    EXPECT_TRUE(f.outlier_indices().empty());
}

TEST(lso_filter, multiple_shifts_all_detected) {
    lso_filter f;
    for (int i = 0; i < 8; ++i) f.observe(10.0);
    for (int i = 0; i < 8; ++i) f.observe(20.0);
    for (int i = 0; i < 8; ++i) f.observe(8.0);
    EXPECT_EQ(f.shift_indices().size(), 2u);
}

TEST(lso_filter, scale_invariance) {
    // Detections depend only on relative differences: scaling the whole
    // series must not change them.
    std::vector<double> base = with_level_shift();
    base[5] = 25.0;  // an outlier in the low segment
    lso_filter a, b;
    for (const double x : base) a.observe(x);
    for (const double x : base) b.observe(x * 1e6);
    EXPECT_EQ(a.shift_indices(), b.shift_indices());
    EXPECT_EQ(a.outlier_indices(), b.outlier_indices());
}

TEST(lso_predictor, recovers_fast_after_level_shift) {
    // 10 samples at the old level, then only 4 at the new one: a plain
    // 10-MA still averages across the shift, the LSO wrapper has restarted.
    std::vector<double> series(10, 10.0);
    series.insert(series.end(), 4, 20.0);

    lso_predictor with_lso(std::make_unique<moving_average>(10));
    moving_average no_lso(10);
    for (const double x : series) {
        with_lso.observe(x);
        no_lso.observe(x);
    }
    EXPECT_NEAR(with_lso.predict(), 20.0, 1e-9);
    EXPECT_LT(no_lso.predict(), 16.0);
}

TEST(lso_predictor, ignores_outliers_in_forecast) {
    lso_predictor p(std::make_unique<moving_average>(5));
    std::vector<double> s(8, 10.0);
    s.push_back(100.0);
    s.insert(s.end(), 4, 10.0);
    for (const double x : s) p.observe(x);
    EXPECT_NEAR(p.predict(), 10.0, 1e-9);
}

TEST(lso_predictor, name_appends_suffix) {
    lso_predictor p(std::make_unique<holt_winters>(0.8, 0.2));
    EXPECT_EQ(p.name(), "0.8-HW-LSO");
}

TEST(lso_predictor, clone_empty_preserves_structure) {
    lso_predictor p(std::make_unique<moving_average>(7), lso_config{0.2, 0.3});
    auto clone = p.clone_empty();
    EXPECT_EQ(clone->name(), "7-MA-LSO");
    EXPECT_TRUE(std::isnan(clone->predict()));
}

TEST(lso_scan_fn, reports_segments_and_outliers) {
    std::vector<double> s(10, 10.0);
    s.push_back(40.0);  // outlier
    s.insert(s.end(), 9, 10.0);
    s.insert(s.end(), 10, 25.0);  // shift
    const lso_scan_result r = lso_scan(s);
    EXPECT_TRUE(r.is_outlier[10]);
    ASSERT_EQ(r.segment_starts.size(), 2u);
    EXPECT_EQ(r.segment_starts[0], 0u);
    EXPECT_EQ(r.segment_starts[1], 20u);
}

// Parameter sweep: higher psi tolerates bigger spikes.
class psi_sweep : public ::testing::TestWithParam<double> {};

TEST_P(psi_sweep, spike_detection_threshold_scales_with_psi) {
    const double psi = GetParam();
    lso_filter f(lso_config{0.3, psi});
    for (int i = 0; i < 10; ++i) f.observe(10.0);
    f.observe(10.0 * (1.0 + psi + 0.2));  // just above threshold
    for (int i = 0; i < 5; ++i) f.observe(10.0);
    EXPECT_EQ(f.outlier_indices().size(), 1u) << "psi=" << psi;

    lso_filter g(lso_config{0.3, psi});
    for (int i = 0; i < 10; ++i) g.observe(10.0);
    g.observe(10.0 * (1.0 + psi * 0.5));  // below threshold
    for (int i = 0; i < 5; ++i) g.observe(10.0);
    EXPECT_TRUE(g.outlier_indices().empty()) << "psi=" << psi;
}

INSTANTIATE_TEST_SUITE_P(sweep, psi_sweep, ::testing::Values(0.3, 0.4, 0.6, 1.0));

TEST(lso_filter, observe_reports_how_the_history_changed) {
    lso_filter f;
    using change = lso_filter::change;
    EXPECT_EQ(f.observe(std::numeric_limits<double>::quiet_NaN()), change::unchanged);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(f.observe(10.0), change::appended);
    EXPECT_EQ(f.observe(40.0), change::appended);    // trailing: may start a level
    EXPECT_EQ(f.observe(10.0), change::rewritten);   // 40 is now a bounded outlier
    for (int i = 0; i < 2; ++i) EXPECT_EQ(f.observe(30.0), change::appended);
    EXPECT_EQ(f.observe(30.0), change::rewritten);   // third sample confirms the shift
    EXPECT_EQ(f.cleaned().size(), 3u);
}

// ---------------------------------------------------------------------------
// Differential test: the incremental filter (linear shift scan, nth_element
// medians) and the append-only refit against the original O(n^2) filter and
// refit-every-step predictor, kept here verbatim as the reference. Every
// output must match bitwise after every step.

namespace reference {

double median_values(const std::vector<lso_filter::sample>& v, std::size_t begin,
                     std::size_t end) {
    std::vector<double> tmp;
    tmp.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) tmp.push_back(v[i].value);
    std::sort(tmp.begin(), tmp.end());
    const std::size_t n = tmp.size();
    if (n == 0) return 0.0;
    return n % 2 == 1 ? tmp[n / 2] : 0.5 * (tmp[n / 2 - 1] + tmp[n / 2]);
}

double relative_gap(double a, double b) {
    const double lo = std::min(a, b);
    const double hi = std::max(a, b);
    if (lo <= 0.0) return hi > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    return (hi - lo) / lo;
}

class filter {
public:
    explicit filter(lso_config cfg) : cfg_(cfg) {}

    void observe(double x) {
        if (std::isnan(x)) {
            ++observed_;
            return;
        }
        history_.push_back(lso_filter::sample{observed_, x});
        ++observed_;
        detect_outliers();
        detect_level_shift();
    }

    std::vector<lso_filter::sample> history_;
    std::vector<std::size_t> outliers_;
    std::vector<std::size_t> shifts_;

private:
    void detect_outliers() {
        if (history_.size() < 3) return;
        const double med = median_values(history_, 0, history_.size());
        if (med <= 0.0) return;

        const auto deviant = [&](std::size_t i) {
            return relative_gap(history_[i].value, med) > cfg_.psi;
        };

        std::vector<std::size_t> to_remove;
        for (std::size_t i = 0; i < history_.size();) {
            if (!deviant(i)) {
                ++i;
                continue;
            }
            std::size_t j = i;
            while (j < history_.size() && deviant(j)) ++j;
            const bool terminated = j < history_.size();
            if (terminated && j - i <= 2) {
                for (std::size_t k = i; k < j; ++k) to_remove.push_back(k);
            }
            i = j;
        }
        for (auto it = to_remove.rbegin(); it != to_remove.rend(); ++it) {
            outliers_.push_back(history_[*it].index);
            history_.erase(history_.begin() + static_cast<std::ptrdiff_t>(*it));
        }
        std::sort(outliers_.begin(), outliers_.end());
    }

    void detect_level_shift() {
        const std::size_t n = history_.size();
        if (n < k_lso_min_post_shift_samples + 1) return;
        for (std::size_t k = 1; k + k_lso_min_post_shift_samples <= n; ++k) {
            double max_before = history_[0].value, min_before = history_[0].value;
            for (std::size_t i = 1; i < k; ++i) {
                max_before = std::max(max_before, history_[i].value);
                min_before = std::min(min_before, history_[i].value);
            }
            double max_after = history_[k].value, min_after = history_[k].value;
            for (std::size_t i = k + 1; i < n; ++i) {
                max_after = std::max(max_after, history_[i].value);
                min_after = std::min(min_after, history_[i].value);
            }
            const bool increasing = max_before < min_after;
            const bool decreasing = min_before > max_after;
            if (!increasing && !decreasing) continue;

            const double med_before = median_values(history_, 0, k);
            const double med_after = median_values(history_, k, n);
            if (relative_gap(med_before, med_after) <= cfg_.gamma) continue;

            shifts_.push_back(history_[k].index);
            history_.erase(history_.begin(),
                           history_.begin() + static_cast<std::ptrdiff_t>(k));
            return;
        }
    }

    lso_config cfg_;
    std::size_t observed_{0};
};

/// The original wrapper: a fresh clone re-fed the cleaned history on every
/// observation.
class predictor final : public hb_predictor {
public:
    predictor(std::unique_ptr<hb_predictor> inner, lso_config cfg)
        : prototype_(std::move(inner)), fitted_(prototype_->clone_empty()), cfg_(cfg),
          filter_(cfg) {}

    void observe(double x) override {
        filter_.observe(x);
        fitted_ = prototype_->clone_empty();
        for (const auto& s : filter_.history_) fitted_->observe(s.value);
    }
    [[nodiscard]] double predict() const override { return fitted_->predict(); }
    void reset() override {
        filter_ = filter(cfg_);
        fitted_ = prototype_->clone_empty();
    }
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_into(lso_share& /*share*/) const override {
        return std::make_unique<predictor>(prototype_->clone_empty(), cfg_);
    }
    [[nodiscard]] std::string name() const override { return prototype_->name() + "-LSO"; }
    [[nodiscard]] std::size_t history_size() const override {
        return filter_.history_.size();
    }

    [[nodiscard]] const filter& lso() const noexcept { return filter_; }

private:
    std::unique_ptr<hb_predictor> prototype_;
    std::unique_ptr<hb_predictor> fitted_;
    lso_config cfg_;
    filter filter_;
};

}  // namespace reference

/// A seeded series with the features the incremental code must get right:
/// level shifts (up and down), 1-2-sample outliers, NaN gaps, runs of equal
/// values and ties (values quantized to a coarse grid), and zeros.
std::vector<double> adversarial_series(std::uint64_t seed, std::size_t n) {
    sim::rng r(seed);
    std::vector<double> s;
    s.reserve(n);
    double level = 10.0;
    while (s.size() < n) {
        const double u = r.uniform();
        if (u < 0.06) {
            level *= r.chance(0.5) ? r.uniform(1.4, 3.0) : r.uniform(0.3, 0.7);
        } else if (u < 0.10) {
            const auto len = static_cast<std::size_t>(r.uniform_int(1, 2));
            const double spike = level * (r.chance(0.5) ? 4.0 : 0.2);
            for (std::size_t i = 0; i < len && s.size() < n; ++i) s.push_back(spike);
            continue;
        } else if (u < 0.14) {
            s.push_back(std::numeric_limits<double>::quiet_NaN());
            continue;
        } else if (u < 0.17) {
            s.push_back(0.0);
            continue;
        } else if (u < 0.25) {
            const auto len = static_cast<std::size_t>(r.uniform_int(2, 6));
            for (std::size_t i = 0; i < len && s.size() < n; ++i) s.push_back(level);
            continue;
        }
        // Noise quantized to a 5% grid: plenty of exact ties.
        s.push_back(level * (1.0 + 0.05 * std::round(r.normal(0.0, 1.5))));
    }
    return s;
}

/// Bitwise double equality (NaN == NaN when the bits agree).
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_history(const std::vector<lso_filter::sample>& got,
                         const std::vector<lso_filter::sample>& want, std::uint64_t seed,
                         std::size_t step) {
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].index, want[i].index) << "seed " << seed << " step " << step;
        ASSERT_TRUE(same_bits(got[i].value, want[i].value))
            << "seed " << seed << " step " << step;
    }
}

const std::vector<lso_config> k_configs = {
    lso_config{},                 // the paper's defaults
    lso_config{0.1, 0.2},         // trigger-happy
    lso_config{0.6, 0.9},         // conservative
};

TEST(lso_differential, filter_matches_reference_bitwise) {
    for (const lso_config& cfg : k_configs) {
        for (std::uint64_t seed = 1; seed <= 60; ++seed) {
            // Lengths alternate parity so both median branches are hit at
            // the end as well as along the way.
            const auto series = adversarial_series(seed, 120 + seed % 2);
            lso_filter got(cfg);
            reference::filter want(cfg);
            for (std::size_t i = 0; i < series.size(); ++i) {
                got.observe(series[i]);
                want.observe(series[i]);
                expect_same_history(got.cleaned(), want.history_, seed, i);
                ASSERT_EQ(got.outlier_indices(), want.outliers_) << "seed " << seed;
                ASSERT_EQ(got.shift_indices(), want.shifts_) << "seed " << seed;
            }
        }
    }
}

TEST(lso_differential, detections_actually_happen) {
    // Guard against a vacuous differential test: the generator must drive
    // both detectors and both median parities.
    std::size_t outliers = 0;
    std::size_t shifts = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        lso_filter f;
        for (const double x : adversarial_series(seed, 121)) f.observe(x);
        outliers += f.outlier_indices().size();
        shifts += f.shift_indices().size();
    }
    EXPECT_GT(outliers, 50u);
    EXPECT_GT(shifts, 50u);
}

using inner_factory = std::function<std::unique_ptr<hb_predictor>()>;

struct named_inner {
    const char* name;
    inner_factory make;
};

const std::vector<named_inner> k_inners = {
    {"5-MA", [] { return std::make_unique<moving_average>(5); }},
    {"10-MA", [] { return std::make_unique<moving_average>(10); }},
    {"0.5-EWMA", [] { return std::make_unique<ewma>(0.5); }},
    {"0.8-HW", [] { return std::make_unique<holt_winters>(0.8, 0.2); }},
    {"2-AR", [] { return std::make_unique<ar_predictor>(2); }},
    {"5-AR", [] { return std::make_unique<ar_predictor>(5); }},
    {"3-AR/w12", [] { return std::make_unique<ar_predictor>(3, 12); }},
};

/// Feed one series through both predictors, checking every output after
/// every step; reset halfway so reset() is covered too.
void expect_same_predictions(hb_predictor& got, hb_predictor& want,
                             const std::vector<double>& series, const std::string& what) {
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (i == series.size() / 2) {
            got.reset();
            want.reset();
        }
        got.observe(series[i]);
        want.observe(series[i]);
        ASSERT_TRUE(same_bits(got.predict(), want.predict()))
            << what << " step " << i << ": " << got.predict() << " vs " << want.predict();
        ASSERT_EQ(got.history_size(), want.history_size()) << what << " step " << i;
    }
}

TEST(lso_differential, predictor_matches_refit_every_step) {
    for (const lso_config& cfg : k_configs) {
        for (const named_inner& inner : k_inners) {
            for (std::uint64_t seed = 1; seed <= 25; ++seed) {
                const auto series = adversarial_series(seed * 7919, 90 + seed % 2);
                lso_predictor got(inner.make(), cfg);
                reference::predictor want(inner.make(), cfg);
                const std::string what = std::string(inner.name) + " seed " +
                                         std::to_string(seed);
                expect_same_predictions(got, want, series, what);
                if (::testing::Test::HasFatalFailure()) return;
                expect_same_history(got.filter().cleaned(), want.lso().history_, seed,
                                    series.size());
                ASSERT_EQ(got.filter().outlier_indices(), want.lso().outliers_) << what;
                ASSERT_EQ(got.filter().shift_indices(), want.lso().shifts_) << what;
            }
        }
    }
}

TEST(lso_differential, nws_over_incremental_lso_matches_reference) {
    // The NWS selector races four LSO-wrapped candidates; built over the
    // reference wrapper it must pick and forecast identically.
    const auto make = [](bool incremental) {
        const auto wrap = [incremental](std::unique_ptr<hb_predictor> inner)
            -> std::unique_ptr<hb_predictor> {
            if (incremental) return std::make_unique<lso_predictor>(std::move(inner));
            return std::make_unique<reference::predictor>(std::move(inner), lso_config{});
        };
        std::vector<std::unique_ptr<hb_predictor>> set;
        set.push_back(wrap(std::make_unique<moving_average>(5)));
        set.push_back(wrap(std::make_unique<moving_average>(10)));
        set.push_back(wrap(std::make_unique<ewma>(0.5)));
        set.push_back(wrap(std::make_unique<holt_winters>(0.8, 0.2)));
        return std::make_unique<adaptive_selector>(std::move(set));
    };
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto got = make(true);
        auto want = make(false);
        std::vector<double> series = adversarial_series(seed * 104729, 80 + seed % 2);
        // adaptive_selector has no gap path of its own: feed real samples.
        std::erase_if(series, [](double x) { return std::isnan(x); });
        expect_same_predictions(*got, *want, series, "NWS seed " + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
        EXPECT_EQ(got->best_index(), want->best_index());
    }
}

// ---------------------------------------------------------------------------
// Shared filters (lso_share): LSO wrappers cloned into one share for one
// series run one filter per config in lockstep, and must match wrappers
// cloned on their own bitwise.

/// The LSO wrapper inside a registry-built "<hb>-LSO" or "hybrid:<hb>-LSO".
const lso_predictor& lso_of(const predictor& p) {
    if (const auto* h = dynamic_cast<const history_predictor*>(&p)) {
        return dynamic_cast<const lso_predictor&>(h->inner());
    }
    return dynamic_cast<const lso_predictor&>(
        dynamic_cast<const blended_predictor&>(p).history());
}

/// The filter an LSO wrapper reads.
const lso_filter* filter_of(const hb_predictor& p) {
    return &dynamic_cast<const lso_predictor&>(p).filter();
}

/// history_size() of the series forecaster behind a history or hybrid spec.
std::size_t history_of(const predictor& p) {
    if (const auto* h = dynamic_cast<const history_predictor*>(&p)) {
        return h->inner().history_size();
    }
    return dynamic_cast<const blended_predictor&>(p).history().history_size();
}

TEST(lso_share, clone_set_matches_independent_clones_bitwise) {
    const std::vector<std::string> specs{"10-MA-LSO", "0.8-HW-LSO", "NWS", "5-AR-LSO",
                                         "hybrid:0.8-HW-LSO"};
    std::vector<std::unique_ptr<predictor>> protos;
    for (const auto& spec : specs) protos.push_back(make_predictor(spec));

    std::size_t rewrites = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const auto series = adversarial_series(seed * 6151, 100 + seed % 2);
        lso_share share;
        std::vector<std::unique_ptr<predictor>> shared, alone;
        for (const auto& p : protos) {
            shared.push_back(p->clone_into(share));
            alone.push_back(p->clone_empty());
        }
        // Not vacuous: the LSO specs really read one filter.
        ASSERT_EQ(&lso_of(*shared[0]).filter(), &lso_of(*shared[1]).filter());
        ASSERT_EQ(&lso_of(*shared[0]).filter(), &lso_of(*shared[4]).filter());
        ASSERT_NE(&lso_of(*alone[0]).filter(), &lso_of(*alone[1]).filter());

        // Epoch-major, as the engine walks: every clone takes epoch i (its
        // predict, then its observe) before any takes epoch i + 1, so later
        // clones predict after earlier ones have advanced the filter.
        for (std::size_t i = 0; i < series.size(); ++i) {
            for (std::size_t j = 0; j < specs.size(); ++j) {
                const std::string what =
                    specs[j] + " seed " + std::to_string(seed) + " step " + std::to_string(i);
                const prediction got = shared[j]->predict(epoch_inputs::absent());
                const prediction want = alone[j]->predict(epoch_inputs::absent());
                ASSERT_TRUE(same_bits(got.value_bps, want.value_bps)) << what;
                ASSERT_EQ(got.status, want.status) << what;
                ASSERT_EQ(got.inputs_used.history_samples, want.inputs_used.history_samples)
                    << what;
                shared[j]->observe_maybe(series[i]);
                alone[j]->observe_maybe(series[i]);
                ASSERT_EQ(history_of(*shared[j]), history_of(*alone[j])) << what;
            }
            if (lso_of(*shared[0]).filter().last_change() == lso_filter::change::rewritten) {
                ++rewrites;
            }
        }
    }
    EXPECT_GT(rewrites, 100u);  // outliers and shifts really happened
}

TEST(lso_share, observe_out_of_lockstep_throws) {
    lso_share share;
    const lso_predictor proto(std::make_unique<moving_average>(5));
    const auto a = proto.clone_into(share);
    const auto b = proto.clone_into(share);
    a->observe(10.0);
    EXPECT_THROW(b->observe(11.0), std::logic_error);  // a different x
    b->observe(10.0);
    a->observe(12.0);
    a->observe(13.0);
    EXPECT_THROW(b->observe(13.0), std::logic_error);  // b skipped 12
    EXPECT_THROW(b->observe(12.0), std::logic_error);  // the filter is two ahead
}

TEST(lso_share, reset_moves_the_wrapper_onto_a_private_filter) {
    lso_share share;
    const lso_predictor proto(std::make_unique<holt_winters>(0.8, 0.2));
    const auto a = proto.clone_into(share);
    const auto b = proto.clone_into(share);
    const auto a_alone = proto.clone_empty();
    const auto b_alone = proto.clone_empty();
    ASSERT_EQ(filter_of(*a), filter_of(*b));

    const auto series = adversarial_series(424242, 120);
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (std::isnan(series[i])) continue;
        if (i == series.size() / 2) {
            a->reset();
            a_alone->reset();
            ASSERT_NE(filter_of(*a), filter_of(*b));
            EXPECT_EQ(a->history_size(), 0u);
        }
        // b first on odd steps, a first on even ones: neither may depend on
        // the order once a has left the share.
        if (i % 2 == 1) b->observe(series[i]);
        a->observe(series[i]);
        if (i % 2 == 0) b->observe(series[i]);
        a_alone->observe(series[i]);
        b_alone->observe(series[i]);
        ASSERT_TRUE(same_bits(a->predict(), a_alone->predict())) << "step " << i;
        ASSERT_TRUE(same_bits(b->predict(), b_alone->predict())) << "step " << i;
        ASSERT_EQ(a->history_size(), a_alone->history_size()) << "step " << i;
        ASSERT_EQ(b->history_size(), b_alone->history_size()) << "step " << i;
    }
}

TEST(lso_share, different_configs_get_different_filters) {
    const lso_config tuned{0.2, 0.3};
    lso_share share;
    EXPECT_EQ(share.filter_for(lso_config{}), share.filter_for(lso_config{}));
    EXPECT_NE(share.filter_for(lso_config{}), share.filter_for(tuned));
    EXPECT_EQ(share.filter_for(tuned)->config(), tuned);

    const lso_predictor def(std::make_unique<moving_average>(10));
    const lso_predictor alt(std::make_unique<moving_average>(10), tuned);
    lso_share clones;
    const auto d1 = def.clone_into(clones);
    const auto a1 = alt.clone_into(clones);
    const auto d2 = def.clone_into(clones);
    EXPECT_EQ(filter_of(*d1), filter_of(*d2));
    EXPECT_NE(filter_of(*d1), filter_of(*a1));

    // Lockstep over both filters still matches wrappers on their own.
    const auto d_alone = def.clone_empty();
    const auto a_alone = alt.clone_empty();
    for (const double x : adversarial_series(77, 100)) {
        if (std::isnan(x)) continue;
        for (hb_predictor* p : {d1.get(), a1.get(), d2.get(), d_alone.get(), a_alone.get()}) {
            p->observe(x);
        }
        ASSERT_TRUE(same_bits(d1->predict(), d_alone->predict()));
        ASSERT_TRUE(same_bits(d2->predict(), d_alone->predict()));
        ASSERT_TRUE(same_bits(a1->predict(), a_alone->predict()));
    }
}

}  // namespace
}  // namespace tcppred::core
