#include "core/ar_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tcppred::core {

std::vector<double> fit_ar_coefficients(const std::vector<double>& series,
                                        std::size_t order) {
    const std::size_t n = series.size();
    if (order == 0 || n < order + 2) return {};

    double mean = 0.0;
    for (const double x : series) mean += x;
    mean /= static_cast<double>(n);

    // Sample autocovariances r_0..r_p.
    std::vector<double> r(order + 1, 0.0);
    for (std::size_t lag = 0; lag <= order; ++lag) {
        double acc = 0.0;
        for (std::size_t t = lag; t < n; ++t) {
            acc += (series[t] - mean) * (series[t - lag] - mean);
        }
        r[lag] = acc / static_cast<double>(n);
    }
    if (r[0] <= 0.0) return {};  // constant series: AR model degenerate

    // Levinson-Durbin recursion.
    std::vector<double> a(order + 1, 0.0);  // a[1..k] at stage k
    std::vector<double> prev(order + 1);    // a at stage k - 1
    double err = r[0];
    for (std::size_t k = 1; k <= order; ++k) {
        double acc = r[k];
        for (std::size_t j = 1; j < k; ++j) acc -= a[j] * r[k - j];
        const double reflection = acc / err;
        prev = a;  // same size: copies in place
        a[k] = reflection;
        for (std::size_t j = 1; j < k; ++j) a[j] = prev[j] - reflection * prev[k - j];
        err *= (1.0 - reflection * reflection);
        if (err <= 0.0) break;  // perfectly predictable: keep current fit
    }
    return std::vector<double>(a.begin() + 1, a.end());
}

ar_predictor::ar_predictor(std::size_t order, std::size_t window)
    : order_(order), window_(window), min_fit_(std::max<std::size_t>(order + 2, 6)) {
    if (order == 0) throw std::invalid_argument("ar_predictor: order must be >= 1");
    if (window != 0 && window < min_fit_) {
        throw std::invalid_argument("ar_predictor: window too short for the order");
    }
}

void ar_predictor::observe(double x) {
    history_.push_back(x);
    if (window_ != 0 && history_.size() > window_) history_.erase(history_.begin());
    stale_ = true;
}

const std::vector<double>& ar_predictor::coefficients() const {
    refit_if_stale();
    return coefficients_;
}

void ar_predictor::refit_if_stale() const {
    if (!stale_) return;
    stale_ = false;
    mean_ = 0.0;
    for (const double x : history_) mean_ += x;
    if (!history_.empty()) mean_ /= static_cast<double>(history_.size());

    if (history_.size() < min_fit_) {
        coefficients_.clear();
        return;
    }
    coefficients_ = fit_ar_coefficients(history_, order_);
}

double ar_predictor::predict() const {
    if (history_.empty()) return nan();
    refit_if_stale();
    if (coefficients_.empty()) return mean_;  // fallback: window mean

    double forecast = mean_;
    for (std::size_t k = 0; k < coefficients_.size() && k < history_.size(); ++k) {
        forecast += coefficients_[k] * (history_[history_.size() - 1 - k] - mean_);
    }
    // Throughput forecasts are non-negative.
    if (forecast <= 0.0) return std::max(mean_ * 0.05, 1e-9);
    return forecast;
}

void ar_predictor::reset() {
    history_.clear();
    coefficients_.clear();
    mean_ = 0.0;
    stale_ = false;
}

std::unique_ptr<hb_predictor> ar_predictor::clone_into(lso_share& /*share*/) const {
    return std::make_unique<ar_predictor>(order_, window_);
}

std::string ar_predictor::name() const { return std::to_string(order_) + "-AR"; }

}  // namespace tcppred::core
