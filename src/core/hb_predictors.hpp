// History-based (HB) predictors (§5.1): Moving Average, Exponentially
// Weighted Moving Average, and non-seasonal Holt-Winters, behind a common
// one-step-ahead forecasting interface.
#pragma once

#include <cmath>
#include <cstddef>
#include <deque>
#include <limits>
#include <memory>
#include <string>

namespace tcppred::core {

class lso_share;  // core/lso.hpp

/// A real spec parameter as predictor names print it: std::to_string with
/// the trailing zeros and a bare decimal point trimmed (0.8 -> "0.8",
/// 5 -> "5").
[[nodiscard]] std::string spec_number(double v);

/// A one-step-ahead forecaster over a scalar time series.
///
/// Usage: alternately call `predict()` (forecast for the *next* sample) and
/// `observe()` (reveal that sample). `predict()` returns NaN until the
/// predictor has enough history to forecast.
///
/// Gap tolerance: series from a faulty measurement campaign contain missing
/// samples (the epoch's transfer aborted, the probe host was down). Feed
/// those through `observe_maybe(NaN)` / `observe_gap()` — the forecast keeps
/// running on the samples that exist, and `gap_count()` reports how many
/// samples were missing (graceful degradation, never a poisoned NaN state).
class hb_predictor {
public:
    virtual ~hb_predictor() = default;

    /// Reveal the next observed value. Must be a real number; missing
    /// samples go through observe_maybe()/observe_gap() instead.
    virtual void observe(double x) = 0;
    /// Reveal a possibly-missing sample: NaN marks a failed measurement and
    /// is routed to observe_gap() instead of poisoning the estimator state.
    void observe_maybe(double x) {
        if (std::isnan(x)) {
            observe_gap();
        } else {
            observe(x);
        }
    }
    /// Reveal that the next sample is missing. The default keeps the
    /// forecast unchanged and counts the gap; subclasses may age their state.
    virtual void observe_gap() { ++gaps_; }
    /// Forecast the next value; NaN while history is insufficient.
    [[nodiscard]] virtual double predict() const = 0;
    /// Forget all history (used on detected level shifts).
    virtual void reset() = 0;
    /// A fresh predictor of the same kind and parameters whose LSO filters
    /// come from `share` (core/lso.hpp): clones made into one share for one
    /// series run each distinct filter once, and must then observe that
    /// series in lockstep. Predictors without an LSO filter ignore it.
    [[nodiscard]] virtual std::unique_ptr<hb_predictor> clone_into(lso_share& share) const = 0;
    /// A fresh predictor of the same kind and parameters, sharing nothing:
    /// clone_into() a share of its own.
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_empty() const;
    /// Human-readable name, e.g. "10-MA" or "0.8-HW".
    [[nodiscard]] virtual std::string name() const = 0;

    /// Number of samples observed since the last reset.
    [[nodiscard]] virtual std::size_t history_size() const = 0;

    /// Missing samples seen over the predictor's lifetime (not reset()).
    [[nodiscard]] std::size_t gap_count() const noexcept { return gaps_; }

protected:
    static constexpr double nan() { return std::numeric_limits<double>::quiet_NaN(); }

private:
    std::size_t gaps_{0};
};

/// n-order Moving Average: the mean of the last n observations
/// (1-MA = last value).
class moving_average final : public hb_predictor {
public:
    explicit moving_average(std::size_t order);

    void observe(double x) override;
    [[nodiscard]] double predict() const override;
    void reset() override;
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_into(lso_share&) const override;
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::size_t history_size() const override { return seen_; }

    [[nodiscard]] std::size_t order() const noexcept { return order_; }

private:
    std::size_t order_;
    std::deque<double> window_;
    double sum_{0.0};
    std::size_t seen_{0};
};

/// EWMA: X̂_{i+1} = α X_i + (1−α) X̂_i, initialized with the first sample.
class ewma final : public hb_predictor {
public:
    explicit ewma(double alpha);

    void observe(double x) override;
    [[nodiscard]] double predict() const override;
    void reset() override;
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_into(lso_share&) const override;
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::size_t history_size() const override { return seen_; }

    [[nodiscard]] double alpha() const noexcept { return alpha_; }

private:
    double alpha_;
    double forecast_{0.0};
    std::size_t seen_{0};
};

/// Non-seasonal Holt-Winters (§5.1.3): separate smoothing and trend
/// components,
///   s_i = α X_i + (1−α)(s_{i−1} + t_{i−1})
///   t_i = β (s_i − s_{i−1}) + (1−β) t_{i−1}
///   forecast = s_i + t_i,
/// initialized per the paper with s_0 = X_0 and t_0 = X_1 − X_0 (forecasts
/// start after two samples).
class holt_winters final : public hb_predictor {
public:
    /// β of every "<α>-HW" spec and of the NWS candidate set.
    static constexpr double k_spec_beta = 0.2;

    holt_winters(double alpha, double beta);

    void observe(double x) override;
    [[nodiscard]] double predict() const override;
    void reset() override;
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_into(lso_share&) const override;
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::size_t history_size() const override { return seen_; }

    [[nodiscard]] double alpha() const noexcept { return alpha_; }
    [[nodiscard]] double beta() const noexcept { return beta_; }

private:
    double alpha_;
    double beta_;
    double level_{0.0};
    double trend_{0.0};
    double first_{0.0};
    std::size_t seen_{0};
};

}  // namespace tcppred::core
