#include "core/lso.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

namespace tcppred::core {

namespace {

/// Median of the values of `s`, computed in `buf` (at least s.size()
/// doubles, overwritten). Bitwise the value a full sort gives: nth_element
/// puts the upper-middle value at n/2 with no larger value before it, so
/// the lower-middle value is the largest of those, and the even-count mean
/// adds the two in the order the sorted form does.
double median_values(std::span<const lso_filter::sample> s, std::span<double> buf) {
    const std::size_t n = s.size();
    if (n == 0) return 0.0;
    for (std::size_t i = 0; i < n; ++i) buf[i] = s[i].value;
    const auto first = buf.begin();
    const auto mid = first + static_cast<std::ptrdiff_t>(n / 2);
    std::nth_element(first, mid, first + static_cast<std::ptrdiff_t>(n));
    if (n % 2 == 1) return *mid;
    return 0.5 * (*std::max_element(first, mid) + *mid);
}

/// Relative gap between two positive levels, measured against the smaller:
/// symmetric for increasing and decreasing shifts.
double relative_gap(double a, double b) {
    const double lo = std::min(a, b);
    const double hi = std::max(a, b);
    if (lo <= 0.0) return hi > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    return (hi - lo) / lo;
}

}  // namespace

lso_filter::lso_filter(lso_config cfg) : cfg_(cfg) {
    if (cfg.gamma < 0 || cfg.psi < 0) throw std::invalid_argument("lso: negative thresholds");
}

lso_filter::change lso_filter::observe(double x) {
    last_input_ = x;
    // A missing sample (failed measurement) advances the index so detections
    // keep referring to original series positions, but never enters the
    // history: NaN would poison every median and min/max comparison.
    if (std::isnan(x)) {
        ++observed_;
        last_change_ = change::unchanged;
        return last_change_;
    }
    history_.push_back(sample{observed_, x});
    ++observed_;
    std::vector<double> scratch(3 * history_.size());
    const bool removed = detect_outliers(scratch);
    const bool shifted = detect_level_shift(scratch);
    last_change_ = removed || shifted ? change::rewritten : change::appended;
    return last_change_;
}

bool lso_filter::detect_outliers(std::span<double> scratch) {
    // A sample X_k with k < n is an outlier when it differs from the median
    // of {X_1..X_n} by more than a relative difference ψ. Two refinements
    // keep outlier removal from swallowing level shifts:
    //  * the trailing run of deviant samples is exempt — it may be the
    //    beginning of a new level (the shift detector decides later);
    //  * only short runs (1-2 samples) bounded by non-deviant samples are
    //    treated as outliers; longer interior runs are left alone.
    if (history_.size() < 3) return false;
    const double med = median_values(history_, scratch);
    if (med <= 0.0) return false;

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
        const bool terminated = j < history_.size();  // a normal sample follows
        if (terminated && j - i <= 2) {
            for (std::size_t k = i; k < j; ++k) to_remove.push_back(k);
        }
        i = j;
    }
    if (to_remove.empty()) return false;
    for (auto it = to_remove.rbegin(); it != to_remove.rend(); ++it) {
        outliers_.push_back(history_[*it].index);
        history_.erase(history_.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    std::sort(outliers_.begin(), outliers_.end());
    return true;
}

bool lso_filter::detect_level_shift(std::span<double> scratch) {
    const std::size_t n = history_.size();
    if (n < k_lso_min_post_shift_samples + 1) return false;

    // Scan candidate shift positions k (0-based index of the first sample of
    // the new level); the first k that passes wins. Paper conditions:
    //  1. all of X_1..X_{k-1} on one side of all of X_k..X_n,
    //  2. medians differ by more than γ (relative),
    //  3. at least k_lso_min_post_shift_samples samples at the new level
    //     (the paper's k + 2 <= n with 1-based k).
    // Condition 1 is O(1) per k: the extremes of X_k..X_n come from one
    // backward pass, those of X_1..X_{k-1} grow with k. The medians are
    // computed only for a k that passes it.
    const std::span<const sample> h(history_);
    const std::span<double> min_after = scratch.first(n);
    const std::span<double> max_after = scratch.subspan(n, n);
    const std::span<double> median_buf = scratch.subspan(2 * n, n);
    min_after[n - 1] = max_after[n - 1] = h[n - 1].value;
    for (std::size_t i = n - 1; i-- > 0;) {
        min_after[i] = std::min(min_after[i + 1], h[i].value);
        max_after[i] = std::max(max_after[i + 1], h[i].value);
    }
    double max_before = h[0].value, min_before = h[0].value;
    for (std::size_t k = 1; k + k_lso_min_post_shift_samples <= n; ++k) {
        if (k > 1) {
            max_before = std::max(max_before, h[k - 1].value);
            min_before = std::min(min_before, h[k - 1].value);
        }
        const bool increasing = max_before < min_after[k];
        const bool decreasing = min_before > max_after[k];
        if (!increasing && !decreasing) continue;

        const double med_before = median_values(h.first(k), median_buf);
        const double med_after = median_values(h.subspan(k), median_buf);
        if (relative_gap(med_before, med_after) <= cfg_.gamma) continue;

        shifts_.push_back(h[k].index);
        history_.erase(history_.begin(),
                       history_.begin() + static_cast<std::ptrdiff_t>(k));
        return true;
    }
    return false;
}

std::shared_ptr<lso_filter> lso_share::filter_for(const lso_config& cfg) {
    for (const auto& f : filters_) {
        if (f->config() == cfg) return f;
    }
    filters_.push_back(std::make_shared<lso_filter>(cfg));
    return filters_.back();
}

lso_predictor::lso_predictor(std::unique_ptr<hb_predictor> inner, lso_config cfg)
    : lso_predictor(std::move(inner), std::make_shared<lso_filter>(cfg)) {}

lso_predictor::lso_predictor(std::unique_ptr<hb_predictor> inner,
                             std::shared_ptr<lso_filter> filter)
    : prototype_(std::move(inner)), filter_(std::move(filter)) {
    if (!prototype_) throw std::invalid_argument("lso_predictor: null inner predictor");
    if (!filter_) throw std::invalid_argument("lso_predictor: null filter");
    fitted_ = prototype_->clone_empty();
}

void lso_predictor::observe(double x) {
    lso_filter::change change{};
    if (filter_->observed() == seen_) {
        change = filter_->observe(x);
    } else if (filter_->observed() == seen_ + 1 &&
               std::bit_cast<std::uint64_t>(filter_->last_input()) ==
                   std::bit_cast<std::uint64_t>(x)) {
        change = filter_->last_change();  // a sharer ran this very step
    } else {
        throw std::logic_error("lso_predictor: shared filter out of lockstep (observed " +
                               std::to_string(filter_->observed()) + ", wrapper at " +
                               std::to_string(seen_) + ")");
    }
    ++seen_;
    switch (change) {
        case lso_filter::change::unchanged: return;
        case lso_filter::change::appended: fitted_->observe(x); break;
        case lso_filter::change::rewritten: refit(); break;
    }
    cleaned_size_ = filter_->cleaned().size();
}

void lso_predictor::refit() {
    fitted_->reset();
    for (const auto& s : filter_->cleaned()) fitted_->observe(s.value);
}

double lso_predictor::predict() const { return fitted_->predict(); }

void lso_predictor::reset() {
    filter_ = std::make_shared<lso_filter>(filter_->config());
    seen_ = 0;
    cleaned_size_ = 0;
    fitted_->reset();
}

std::unique_ptr<hb_predictor> lso_predictor::clone_into(lso_share& share) const {
    return std::make_unique<lso_predictor>(prototype_->clone_empty(),
                                           share.filter_for(filter_->config()));
}

std::string lso_predictor::name() const { return prototype_->name() + "-LSO"; }

lso_scan_result lso_scan(const std::vector<double>& series, lso_config cfg) {
    lso_filter filter(cfg);
    for (const double x : series) filter.observe(x);

    lso_scan_result out;
    out.is_outlier.assign(series.size(), false);
    for (const std::size_t i : filter.outlier_indices()) out.is_outlier[i] = true;
    out.segment_starts.push_back(0);
    for (const std::size_t i : filter.shift_indices()) out.segment_starts.push_back(i);
    return out;
}

}  // namespace tcppred::core
