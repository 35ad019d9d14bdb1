// The paper's LSO heuristics (§5.2): detect level shifts (restart the
// predictor from the shift point) and outliers (discard the sample) in a
// short throughput history, without fitting ARMA models.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hb_predictors.hpp"

namespace tcppred::core {

/// A level shift at position k needs k + 2 <= n (paper condition 3): at
/// least this many samples at the new level before declaring a shift.
inline constexpr std::size_t k_lso_min_post_shift_samples = 3;

/// LSO detection parameters. Defaults are the values the paper found to
/// work well: γ = 0.3 (level-shift median gap), ψ = 0.4 (outlier gap).
struct lso_config {
    double gamma{0.3};  ///< χ in Fig. 18: min relative gap between segment medians
    double psi{0.4};    ///< ψ: min relative gap between a sample and the median

    /// Exact field equality: lso_share hands one filter to equal configs.
    [[nodiscard]] bool operator==(const lso_config&) const = default;
};

/// Incremental LSO scanner over a time series.
///
/// Maintains the "cleaned" history: samples since the last detected level
/// shift, with detected outliers removed. Each sample keeps its original
/// series index so callers can attribute detections retrospectively
/// (needed e.g. when excluding outliers from RMSRE or segmenting a trace
/// into stationary periods for the CoV computation, §6.1.3).
class lso_filter {
public:
    explicit lso_filter(lso_config cfg = {});

    struct sample {
        std::size_t index;  ///< position in the original series
        double value;
    };

    /// What one observe() did to the cleaned history.
    enum class change {
        unchanged,  ///< a NaN gap: nothing entered the history
        appended,   ///< the sample was appended and nothing else moved
        rewritten,  ///< an outlier was removed or a level shift cut the prefix
    };

    /// Feed the next observation. Runs outlier and level-shift detection:
    /// O(n) in the cleaned-history length n, plus an O(n) median pair for
    /// each candidate shift that passes the one-sided test.
    change observe(double x);

    /// Cleaned history: samples since the last level shift, outliers removed.
    [[nodiscard]] const std::vector<sample>& cleaned() const noexcept { return history_; }

    /// Original indices of every sample ever flagged as an outlier.
    [[nodiscard]] const std::vector<std::size_t>& outlier_indices() const noexcept {
        return outliers_;
    }
    /// Original indices where level shifts were detected (index of the first
    /// sample of each new level).
    [[nodiscard]] const std::vector<std::size_t>& shift_indices() const noexcept {
        return shifts_;
    }
    /// Total samples observed so far.
    [[nodiscard]] std::size_t observed() const noexcept { return observed_; }
    [[nodiscard]] const lso_config& config() const noexcept { return cfg_; }

    /// The input and the outcome of the latest observe(): what a sharing
    /// lso_predictor one step behind takes instead of observing again.
    [[nodiscard]] double last_input() const noexcept { return last_input_; }
    [[nodiscard]] change last_change() const noexcept { return last_change_; }

private:
    // Both take a scratch buffer of 3 * cleaned().size() doubles,
    // owned by the observe() call (no per-filter scratch: the daemon keeps
    // one filter per path and spec). Each returns true if it changed the
    // history.
    bool detect_outliers(std::span<double> scratch);
    bool detect_level_shift(std::span<double> scratch);

    lso_config cfg_;
    std::vector<sample> history_;
    std::vector<std::size_t> outliers_;
    std::vector<std::size_t> shifts_;
    std::size_t observed_{0};
    double last_input_{std::numeric_limits<double>::quiet_NaN()};
    change last_change_{change::unchanged};
};

/// One lso_filter per series and lso_config, handed to every LSO wrapper
/// cloned for that series (hb_predictor::clone_into). The filter is a pure
/// function of the series, so the wrappers of one series — 10-MA-LSO,
/// 0.8-HW-LSO, the four NWS candidates, a hybrid's history — can run it
/// once per sample instead of once each. Configs match on exact field
/// equality; different configs get different filters.
class lso_share {
public:
    /// The share's filter for `cfg`, created on first request.
    [[nodiscard]] std::shared_ptr<lso_filter> filter_for(const lso_config& cfg);

private:
    std::vector<std::shared_ptr<lso_filter>> filters_;
};

/// An HB predictor wrapped with the LSO heuristics: the inner predictor
/// always holds the fold of the cleaned history, so outliers never pollute
/// the forecast and level shifts restart it (§5.2).
///
/// The inner predictor is kept in step incrementally. When the filter only
/// appended the new sample, the inner predictor observes that one sample;
/// when the filter rewrote the history (outlier removed, level shift), it is
/// reset() and re-fed the cleaned history. That is bitwise the same as
/// refitting a fresh clone on every sample, because every inner predictor's
/// state is a pure left fold over the samples it observed and its reset()
/// restores exactly the freshly constructed state — an inner predictor must
/// keep both properties.
///
/// Shared filter (lso_share). Wrappers cloned into one share read one
/// filter and must observe the same samples in lockstep: every sharer takes
/// sample i before any takes sample i + 1. Each wrapper counts its own
/// samples. If the filter has seen as many, this wrapper is first for the
/// step and runs observe(x); if the filter is exactly one ahead on a
/// bitwise-equal input, a sharer already ran it and this wrapper takes the
/// recorded change. Any other state throws std::logic_error — always, not
/// only in debug builds. history_size() is this wrapper's cleaned length,
/// cached after its own observe, so a sharer running ahead never shows
/// through; reset() moves this wrapper alone onto a private filter. The
/// filter's O(n) passes are nearly all of an LSO step (see
/// bench/micro_predictors and DESIGN.md §11.5), so k sharers cost about one
/// filter pass plus k inner steps.
class lso_predictor final : public hb_predictor {
public:
    /// A wrapper with a private filter.
    lso_predictor(std::unique_ptr<hb_predictor> inner, lso_config cfg = {});
    /// A wrapper over a filter other wrappers of the same series may read
    /// (lso_share::filter_for), starting at the series' first sample.
    lso_predictor(std::unique_ptr<hb_predictor> inner, std::shared_ptr<lso_filter> filter);

    void observe(double x) override;
    [[nodiscard]] double predict() const override;
    void reset() override;
    /// The clone reads `share`'s filter for this wrapper's config. Its inner
    /// predictor folds the cleaned history, a different series, so that is
    /// cloned on its own.
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_into(lso_share& share) const override;
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::size_t history_size() const override { return cleaned_size_; }

    /// The filter this wrapper reads. When shared it may be one sample
    /// ahead of this wrapper.
    [[nodiscard]] const lso_filter& filter() const noexcept { return *filter_; }

private:
    void refit();

    std::unique_ptr<hb_predictor> prototype_;
    std::unique_ptr<hb_predictor> fitted_;
    std::shared_ptr<lso_filter> filter_;
    std::size_t seen_{0};          ///< samples this wrapper has observed
    std::size_t cleaned_size_{0};  ///< the filter's cleaned length after them
};

/// Retrospective LSO scan of a whole series: outlier flags and stationary
/// segment boundaries. Convenience for analyses that need the final verdict
/// for every sample (CoV weighting, error exclusion).
struct lso_scan_result {
    std::vector<bool> is_outlier;            ///< per original index
    std::vector<std::size_t> segment_starts; ///< always starts with 0
};
[[nodiscard]] lso_scan_result lso_scan(const std::vector<double>& series,
                                       lso_config cfg = {});

}  // namespace tcppred::core
