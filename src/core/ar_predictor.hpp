// Autoregressive AR(p) one-step forecasting — the "more complex linear
// predictors (ARMA/ARIMA)" the paper deliberately leaves out because
// fitting them needs more history than applications usually have (§5, §7).
// Implemented here as the natural extension: sample autocovariances +
// Levinson-Durbin recursion refit over a sliding window, so the claim can
// be tested instead of assumed (see bench/ablation_ar).
#pragma once

#include <cstddef>
#include <vector>

#include "core/hb_predictors.hpp"

namespace tcppred::core {

/// Solve the Yule-Walker equations for AR coefficients from a series'
/// sample autocovariances using the Levinson-Durbin recursion.
/// Returns the coefficients a_1..a_p of
///   x_t - mean = sum_k a_k (x_{t-k} - mean) + e_t.
/// Exposed for unit testing. Returns an empty vector when the series is too
/// short or degenerate (zero variance).
[[nodiscard]] std::vector<double> fit_ar_coefficients(const std::vector<double>& series,
                                                      std::size_t order);

/// AR(p) one-step forecaster over a sliding history window.
///
/// The model is fit on demand: observe() only appends and marks the fit
/// stale, and the first predict() or coefficients() after it refits once
/// over the history (O(n * order) for n samples in the window). The fit
/// reads only the current history, so this is bitwise the eager refit on
/// every observation — but an LSO rewrite that re-feeds n samples
/// (`5-AR-LSO`, see lso_predictor) costs one fit instead of n. Forecasts
/// are made around the window mean, and clamped to be non-negative like the
/// other throughput forecasters. Falls back to the window mean while the
/// history is shorter than `min_fit` samples. The lazy fit mutates the
/// cached fit inside const calls, so one instance must not be read from two
/// threads at once (no caller does: every predictor is owned by one walk or
/// one locked daemon path).
class ar_predictor final : public hb_predictor {
public:
    /// @param order   AR order p (>= 1)
    /// @param window  sliding window length (0 = unbounded history)
    explicit ar_predictor(std::size_t order, std::size_t window = 0);

    void observe(double x) override;
    [[nodiscard]] double predict() const override;
    void reset() override;
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_into(lso_share&) const override;
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::size_t history_size() const override { return history_.size(); }

    [[nodiscard]] std::size_t order() const noexcept { return order_; }
    /// Coefficients of the fit to the current history (empty while it is
    /// shorter than the minimum fit length or degenerate).
    [[nodiscard]] const std::vector<double>& coefficients() const;

private:
    void refit_if_stale() const;

    std::size_t order_;
    std::size_t window_;
    std::size_t min_fit_;
    std::vector<double> history_;
    // The fit to history_, refreshed lazily by refit_if_stale().
    mutable std::vector<double> coefficients_;
    mutable double mean_{0.0};
    mutable bool stale_{false};
};

}  // namespace tcppred::core
