#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tcppred::analysis {

double mean(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    double s = 0.0;
    for (const double x : xs) s += x;
    return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
    if (xs.size() < 2) return 0.0;
    const double m = mean(xs);
    double s = 0.0;
    for (const double x : xs) s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size()));
}

namespace {

/// The one quantile rule (stats.hpp) on an ascending sample: sorted[k − 1]
/// for the smallest rank k with F = k / n >= q. The rank starts at ⌈qn⌉ and
/// is settled against F computed as at() computes it, because q·n can land
/// a rounding step off an integer (0.28 · 25 = 7.000000000000001).
double inverse_ecdf(std::span<const double> sorted, double q) {
    if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile: q outside [0,1]");
    if (sorted.empty()) return 0.0;
    const std::size_t n = sorted.size();
    const auto dn = static_cast<double>(n);
    auto k = std::clamp<std::size_t>(static_cast<std::size_t>(std::ceil(q * dn)), 1, n);
    while (k > 1 && static_cast<double>(k - 1) / dn >= q) --k;
    while (k < n && static_cast<double>(k) / dn < q) ++k;
    return sorted[k - 1];
}

}  // namespace

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
    std::vector<double> v(xs.begin(), xs.end());
    std::sort(v.begin(), v.end());
    return inverse_ecdf(v, q);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
    if (xs.size() != ys.size()) throw std::invalid_argument("pearson: size mismatch");
    if (xs.size() < 2) return 0.0;
    const double mx = mean(xs), my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx, dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0) return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double cov(std::span<const double> xs) {
    const double m = mean(xs);
    if (m == 0.0) return 0.0;
    return stddev(xs) / m;
}

double weighted_cov(const std::vector<double>& series, core::lso_config lso) {
    if (series.empty()) return 0.0;
    const core::lso_scan_result scan = core::lso_scan(series, lso);

    double weighted_sum = 0.0;
    std::size_t total = 0;
    for (std::size_t s = 0; s < scan.segment_starts.size(); ++s) {
        const std::size_t begin = scan.segment_starts[s];
        const std::size_t end = (s + 1 < scan.segment_starts.size())
                                    ? scan.segment_starts[s + 1]
                                    : series.size();
        std::vector<double> segment;
        for (std::size_t i = begin; i < end; ++i) {
            if (!scan.is_outlier[i]) segment.push_back(series[i]);
        }
        if (segment.size() < 2) continue;
        weighted_sum += cov(segment) * static_cast<double>(segment.size());
        total += segment.size();
    }
    return total > 0 ? weighted_sum / static_cast<double>(total) : 0.0;
}

ecdf::ecdf(std::vector<double> samples) : sorted_(std::move(samples)) {
    std::sort(sorted_.begin(), sorted_.end());
}

double ecdf::at(double x) const {
    if (sorted_.empty()) return 0.0;
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double ecdf::quantile(double q) const { return inverse_ecdf(sorted_, q); }

}  // namespace tcppred::analysis
