#include "core/hb_predictors.hpp"

#include <cmath>
#include <stdexcept>

#include "core/lso.hpp"

namespace tcppred::core {

std::string spec_number(double v) {
    std::string s = std::to_string(v);
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
}

std::unique_ptr<hb_predictor> hb_predictor::clone_empty() const {
    lso_share share;
    return clone_into(share);
}

moving_average::moving_average(std::size_t order) : order_(order) {
    if (order == 0) throw std::invalid_argument("moving_average: order must be >= 1");
}

void moving_average::observe(double x) {
    window_.push_back(x);
    sum_ += x;
    if (window_.size() > order_) {
        sum_ -= window_.front();
        window_.pop_front();
    }
    ++seen_;
}

double moving_average::predict() const {
    if (window_.empty()) return nan();
    return sum_ / static_cast<double>(window_.size());
}

void moving_average::reset() {
    window_.clear();
    sum_ = 0.0;
    seen_ = 0;
}

std::unique_ptr<hb_predictor> moving_average::clone_into(lso_share& /*share*/) const {
    return std::make_unique<moving_average>(order_);
}

std::string moving_average::name() const { return std::to_string(order_) + "-MA"; }

ewma::ewma(double alpha) : alpha_(alpha) {
    if (alpha <= 0.0 || alpha >= 1.0) throw std::invalid_argument("ewma: alpha in (0,1)");
}

void ewma::observe(double x) {
    if (seen_ == 0) {
        forecast_ = x;
    } else {
        forecast_ = alpha_ * x + (1.0 - alpha_) * forecast_;
    }
    ++seen_;
}

double ewma::predict() const { return seen_ == 0 ? nan() : forecast_; }

void ewma::reset() {
    forecast_ = 0.0;
    seen_ = 0;
}

std::unique_ptr<hb_predictor> ewma::clone_into(lso_share& /*share*/) const {
    return std::make_unique<ewma>(alpha_);
}

std::string ewma::name() const { return spec_number(alpha_) + "-EWMA"; }

holt_winters::holt_winters(double alpha, double beta) : alpha_(alpha), beta_(beta) {
    if (alpha <= 0.0 || alpha >= 1.0) throw std::invalid_argument("hw: alpha in (0,1)");
    if (beta <= 0.0 || beta >= 1.0) throw std::invalid_argument("hw: beta in (0,1)");
}

void holt_winters::observe(double x) {
    if (seen_ == 0) {
        first_ = x;
    } else if (seen_ == 1) {
        // Initialization in the spirit of the paper (s_0 = X_0,
        // t_0 ~ X_1 - X_0), but with the first trend estimate damped through
        // the trend filter: with LSO restarts the predictor re-initializes
        // often, and fully trusting a 2-sample trend makes the first
        // post-restart forecast wildly over-extrapolate on noisy series.
        const double prev_level = first_;
        trend_ = beta_ * (x - first_);
        level_ = alpha_ * x + (1.0 - alpha_) * (prev_level + trend_);
        trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    } else {
        const double prev_level = level_;
        level_ = alpha_ * x + (1.0 - alpha_) * (level_ + trend_);
        trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    }
    ++seen_;
}

double holt_winters::predict() const {
    if (seen_ == 0) return nan();
    if (seen_ == 1) return first_;  // no trend information yet
    // The forecast target (throughput) is non-negative: a steep downward
    // trend must not extrapolate below zero.
    const double forecast = level_ + trend_;
    if (forecast <= 0.0) return std::max(level_ * 0.05, 1e-9);
    return forecast;
}

void holt_winters::reset() {
    level_ = trend_ = first_ = 0.0;
    seen_ = 0;
}

std::unique_ptr<hb_predictor> holt_winters::clone_into(lso_share& /*share*/) const {
    return std::make_unique<holt_winters>(alpha_, beta_);
}

std::string holt_winters::name() const { return spec_number(alpha_) + "-HW"; }

}  // namespace tcppred::core
