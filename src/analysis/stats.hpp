// Statistics toolkit for the evaluation: empirical CDFs, quantiles,
// correlation, and the stationarity-weighted coefficient of variation the
// paper uses in §6.1.3.
//
// One quantile convention everywhere: the inverse of the empirical CDF the
// figures plot, i.e. the smallest sample v with F(v) >= q, where F is the
// ecdf's own at() (count of samples <= v over n). That is sorted[⌈qn⌉ − 1],
// with q = 0 giving the minimum; no interpolation between order statistics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/lso.hpp"

namespace tcppred::analysis {

/// Mean of a series (0 for empty input).
[[nodiscard]] double mean(std::span<const double> xs);
/// Population standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs);
/// The 0.5-quantile (see quantile()).
[[nodiscard]] double median(std::span<const double> xs);
/// q-quantile under the inverse-ECDF rule above; 0 for empty input. Throws
/// std::invalid_argument unless q is in [0, 1].
[[nodiscard]] double quantile(std::span<const double> xs, double q);
/// Share of samples satisfying `pred` (0 for empty input).
template <typename Pred>
[[nodiscard]] double share(std::span<const double> xs, Pred&& pred) {
    if (xs.empty()) return 0.0;
    std::size_t hits = 0;
    for (const double x : xs) {
        if (pred(x)) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(xs.size());
}
/// Pearson correlation coefficient; 0 when either side is degenerate.
[[nodiscard]] double pearson(std::span<const double> xs, std::span<const double> ys);
/// Coefficient of variation: stddev / mean (0 for degenerate input).
[[nodiscard]] double cov(std::span<const double> xs);

/// Weighted CoV of a trace per §6.1.3: split the series into stationary
/// periods at detected level shifts, drop outliers, compute each period's
/// CoV, and average them weighted by period length.
[[nodiscard]] double weighted_cov(const std::vector<double>& series,
                                  core::lso_config lso = {});

/// Empirical CDF over a sample.
class ecdf {
public:
    explicit ecdf(std::vector<double> samples);

    /// F(x): fraction of samples <= x.
    [[nodiscard]] double at(double x) const;
    /// Inverse: smallest sample value v with F(v) >= q (the quantile() rule).
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
    [[nodiscard]] const std::vector<double>& sorted() const noexcept { return sorted_; }

private:
    std::vector<double> sorted_;
};

}  // namespace tcppred::analysis
