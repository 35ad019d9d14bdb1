#include "core/seasonal_hw.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace tcppred::core {

seasonal_holt_winters::seasonal_holt_winters(double alpha, double beta, double gamma,
                                             std::size_t period)
    : alpha_(alpha), beta_(beta), gamma_(gamma), period_(period) {
    if (alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1 || gamma <= 0 || gamma >= 1) {
        throw std::invalid_argument("seasonal_hw: gains must be in (0,1)");
    }
    if (period < 2) throw std::invalid_argument("seasonal_hw: period must be >= 2");
}

void seasonal_holt_winters::initialize_from_first_season() {
    const double mean =
        std::accumulate(first_season_.begin(), first_season_.end(), 0.0) /
        static_cast<double>(period_);
    level_ = mean;
    trend_ = 0.0;
    seasonal_.resize(period_);
    for (std::size_t i = 0; i < period_; ++i) seasonal_[i] = first_season_[i] - mean;
    initialized_ = true;
}

void seasonal_holt_winters::observe(double x) {
    if (!initialized_) {
        first_season_.push_back(x);
        ++seen_;
        if (first_season_.size() == period_) initialize_from_first_season();
        return;
    }
    const std::size_t idx = seen_ % period_;
    const double prev_level = level_;
    level_ = alpha_ * (x - seasonal_[idx]) + (1.0 - alpha_) * (level_ + trend_);
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    seasonal_[idx] = gamma_ * (x - level_) + (1.0 - gamma_) * seasonal_[idx];
    ++seen_;
}

double seasonal_holt_winters::predict() const {
    if (seen_ == 0) return nan();
    if (!initialized_) {
        // Not a full season yet: forecast the running mean of what we have.
        return std::accumulate(first_season_.begin(), first_season_.end(), 0.0) /
               static_cast<double>(first_season_.size());
    }
    const double forecast = level_ + trend_ + seasonal_[seen_ % period_];
    if (forecast <= 0.0) return std::max(level_ * 0.05, 1e-9);
    return forecast;
}

void seasonal_holt_winters::reset() {
    first_season_.clear();
    seasonal_.clear();
    level_ = trend_ = 0.0;
    seen_ = 0;
    initialized_ = false;
}

std::unique_ptr<hb_predictor> seasonal_holt_winters::clone_into(lso_share& /*share*/) const {
    return std::make_unique<seasonal_holt_winters>(alpha_, beta_, gamma_, period_);
}

std::string seasonal_holt_winters::name() const {
    return "SHW-" + std::to_string(period_);
}

}  // namespace tcppred::core
