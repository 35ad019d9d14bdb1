// NWS-style adaptive predictor selection (Network Weather Service, Swany &
// Wolski — the operational HB system cited in §2). Runs a set of candidate
// forecasters in parallel, tracks each one's recent one-step error on the
// *same* series, and forecasts with whichever candidate currently has the
// lowest exponentially-discounted mean squared relative error. Supports the
// paper's finding that no single predictor dominates on every path by
// letting the data pick per path.
//
// The candidates all observe the selector's one series, one sample each in
// turn, so a clone made into an lso_share (clone_into) gives its LSO
// candidates one filter: the standard set runs one LSO filter per sample
// instead of four, and shares it with any other LSO wrapper cloned into the
// same share. reset() resets every candidate, which moves each LSO candidate
// onto a private filter (lso_predictor::reset).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/hb_predictors.hpp"
#include "core/lso.hpp"

namespace tcppred::core {

/// Exponential discount of each candidate's past errors in its score.
inline constexpr double k_nws_score_discount = 0.9;

class adaptive_selector final : public hb_predictor {
public:
    /// @param candidates  forecasters to race (at least one)
    explicit adaptive_selector(std::vector<std::unique_ptr<hb_predictor>> candidates);

    void observe(double x) override;
    [[nodiscard]] double predict() const override;
    void reset() override;
    [[nodiscard]] std::unique_ptr<hb_predictor> clone_into(lso_share& share) const override;
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::size_t history_size() const override { return seen_; }

    /// Index and name of the currently winning candidate.
    [[nodiscard]] std::size_t best_index() const;
    [[nodiscard]] std::string best_name() const;

    /// The paper-standard candidate set: MA{5,10}, EWMA 0.5, HW 0.8 — all
    /// LSO-wrapped with `lso`, sharing one filter.
    /// The registry's "NWS" passes predictor_config's lso, as it does for
    /// every other LSO spec.
    [[nodiscard]] static std::unique_ptr<adaptive_selector> standard(lso_config lso = {});

private:
    struct entry {
        std::unique_ptr<hb_predictor> predictor;
        double score{0.0};   ///< discounted sum of squared relative errors
        double weight{0.0};  ///< discounted number of scored forecasts
    };

    std::vector<entry> candidates_;
    std::size_t seen_{0};
};

}  // namespace tcppred::core
