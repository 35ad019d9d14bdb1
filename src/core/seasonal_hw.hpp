// Seasonal (additive) Holt-Winters — the seasonal counterpart of the
// paper's non-seasonal HW (§5.1.3). Internet path load has strong diurnal
// periodicity; when the transfer history spans full days, the seasonal
// component captures it where the non-seasonal predictor must chase it as a
// trend. Provided as an extension; reduces to non-seasonal behaviour until
// two full seasons of history exist.
#pragma once

#include <cstddef>
#include <vector>

#include "core/hb_predictors.hpp"

namespace tcppred::core {

class seasonal_holt_winters final : public hb_predictor {
public:
    /// @param alpha  level gain (0,1)
    /// @param beta   trend gain (0,1)
    /// @param gamma  seasonal gain (0,1)
    /// @param period season length in samples (>= 2)
    seasonal_holt_winters(double alpha, double beta, double gamma, std::size_t period);

    void observe(double x) override;
    [[nodiscard]] double predict() const override;
    void reset() override;
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_into(lso_share&) const override;
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::size_t history_size() const override { return seen_; }

    [[nodiscard]] std::size_t period() const noexcept { return period_; }
    /// True once the seasonal indices are initialized (one full season seen).
    [[nodiscard]] bool seasonal_active() const noexcept { return initialized_; }

private:
    void initialize_from_first_season();

    double alpha_, beta_, gamma_;
    std::size_t period_;
    std::vector<double> first_season_;
    std::vector<double> seasonal_;  ///< additive seasonal indices, length = period
    double level_{0.0};
    double trend_{0.0};
    std::size_t seen_{0};
    bool initialized_{false};
};

}  // namespace tcppred::core
