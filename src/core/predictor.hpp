// The unified predictor interface: formula-based (Eq. 3 with staleness
// fallback), the history-based family (MA/EWMA/HW/AR, with and without
// LSO), the NWS-style adaptive selector, and the hybrid FB+HB scheme all
// implement the same streaming contract, so one evaluation engine
// (analysis/evaluation.hpp) and any future serving front-end can drive any
// of them interchangeably. Instances are built from spec strings via
// core::make_predictor (predictor_registry.hpp).
//
// Streaming contract, per epoch of a (path, trace) series:
//   1. predict(inputs)  — forecast the epoch's throughput from the a-priori
//      measurement view (FB) and/or the accumulated history (HB). One call
//      per epoch: stateful implementations (the FB staleness fallback) age
//      on every call.
//   2. observe(actual) / observe_gap() — reveal the epoch's measured
//      throughput, or that the measurement failed (aborted transfer, path
//      outage). observe_maybe(x) routes NaN to observe_gap().
// reset() forgets all history; clone_empty() yields a fresh predictor of
// the same kind and parameters (the engine clones one prototype per trace).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "core/fb_predictor.hpp"
#include "core/hb_predictors.hpp"
#include "core/hybrid_predictor.hpp"

namespace tcppred::core {

/// Why a predictor did (or did not) produce a usable forecast.
enum class prediction_status {
    ok,          ///< value is a real forecast
    no_history,  ///< history-based and not enough samples yet
    unavailable, ///< inputs missing/degenerate beyond what fallbacks cover
};

/// What the forecast was computed from (the paper analyzes lossy vs
/// lossless FB predictions separately, e.g. Fig. 2).
enum class prediction_source {
    history,       ///< HB forecast from past observations
    model_based,   ///< FB lossy branch: throughput formula on (T̂, p̂)
    avail_bw,      ///< FB lossless branch: predict Â
    window_bound,  ///< FB lossless branch: predict W/T̂ (window-limited)
    blended,       ///< hybrid FB+HB mixture
};

/// Stable name of a prediction source ("history", "model_based", ...), as
/// written in trace events and serve replies.
[[nodiscard]] const char* to_string(prediction_source s) noexcept;

/// Provenance of a prediction's inputs.
struct prediction_inputs {
    prediction_source source{prediction_source::history};
    /// History samples behind the forecast (0 for pure FB).
    std::size_t history_samples{0};
    /// Epochs since the inputs were freshly measured: 0 = this epoch's
    /// measurement, >0 = the FB staleness fallback substituted an older one.
    std::size_t staleness{0};
};

/// One forecast plus its status and provenance.
struct prediction {
    double value_bps{std::numeric_limits<double>::quiet_NaN()};  ///< R̂
    prediction_status status{prediction_status::no_history};
    prediction_inputs inputs_used{};

    [[nodiscard]] bool usable() const noexcept {
        return status == prediction_status::ok;
    }
};

/// The a-priori measurement view of one epoch, as seen by predict().
///
/// Three states:
///  * valid measurement:  `measurement` set, `failed` false;
///  * failed measurement: `measurement` empty, `failed` true — the probing
///    faulted (NaN fields / fault flags); FB falls back to its last good
///    measurement within the staleness bound;
///  * absent:             `measurement` empty, `failed` false — the epoch
///    carries no usable a-priori view at all (degenerate zero-RTT record,
///    or a synthetic throughput series with no measurement side). FB skips
///    the epoch without aging its fallback state, matching the legacy
///    zero-RTT guard.
struct epoch_inputs {
    std::optional<path_measurement> measurement{};
    bool failed{false};

    [[nodiscard]] static epoch_inputs valid(path_measurement m) {
        return epoch_inputs{m, false};
    }
    [[nodiscard]] static epoch_inputs failed_measurement() {
        return epoch_inputs{std::nullopt, true};
    }
    [[nodiscard]] static epoch_inputs absent() { return epoch_inputs{}; }
};

/// The unified streaming predictor. See the file comment for the contract.
class predictor {
public:
    virtual ~predictor() = default;

    /// Forecast this epoch's throughput. One call per epoch (see file
    /// comment); implementations with fallback state age on every call.
    [[nodiscard]] virtual prediction predict(const epoch_inputs& in) = 0;

    /// Reveal the epoch's measured throughput (bits/s, a real number).
    virtual void observe(double actual_bps) = 0;
    /// Reveal that the epoch's throughput measurement is missing/unusable.
    virtual void observe_gap() = 0;
    /// Route a possibly-missing sample: NaN marks a failed measurement.
    void observe_maybe(double actual_bps) {
        if (std::isnan(actual_bps)) {
            observe_gap();
        } else {
            observe(actual_bps);
        }
    }

    /// Forget all accumulated history and fallback state.
    virtual void reset() = 0;
    /// A fresh predictor of the same kind and parameters.
    [[nodiscard]] virtual std::unique_ptr<predictor> clone_empty() const = 0;
    /// Canonical spec string, e.g. "fb:pftk", "10-MA-LSO", "0.8-HW".
    [[nodiscard]] virtual std::string name() const = 0;

    /// Minimum series length (in epochs) a trace needs for this predictor's
    /// evaluation to be meaningful. History-based predictors return 3 — the
    /// paper's §6.1 convention of skipping traces too short to forecast;
    /// formula-based prediction works from the first epoch.
    [[nodiscard]] virtual std::size_t min_trace_length() const { return 1; }
};

/// Adapter: any one-step-ahead series forecaster (hb_predictors.hpp) as a
/// unified predictor. predict() ignores the measurement view and forecasts
/// from observed history alone.
class history_predictor final : public predictor {
public:
    explicit history_predictor(std::unique_ptr<hb_predictor> inner);

    [[nodiscard]] prediction predict(const epoch_inputs& in) override;
    void observe(double actual_bps) override;
    void observe_gap() override;
    void reset() override;
    [[nodiscard]] std::unique_ptr<predictor> clone_empty() const override;
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::size_t min_trace_length() const override { return 3; }

    [[nodiscard]] const hb_predictor& inner() const noexcept { return *inner_; }

private:
    std::unique_ptr<hb_predictor> inner_;
};

/// Which throughput estimate the formula predictor uses for an epoch.
enum class formula_kind {
    square_root,  ///< Mathis et al. (Eq. 1) on the lossy branch
    pftk,         ///< PFTK approximation (Eq. 2) — the paper's default
    pftk_full,    ///< full/revised PFTK (§4.2.9)
    min_wa,       ///< always min(W/T̂, Â): the lossless branch of Eq. 3 alone
};

/// The formula-based predictor of Eq. 3 behind the unified interface,
/// including the measurement-fault staleness fallback
/// (core::degraded_fb_predictor). observe()/observe_gap() are no-ops: FB
/// prediction never looks at past throughput.
class formula_predictor final : public predictor {
public:
    formula_predictor(formula_kind kind, tcp_flow_params flow,
                      degraded_fb_config degraded = {});

    [[nodiscard]] prediction predict(const epoch_inputs& in) override;
    void observe(double) override {}
    void observe_gap() override {}
    void reset() override;
    [[nodiscard]] std::unique_ptr<predictor> clone_empty() const override;
    [[nodiscard]] std::string name() const override;

    [[nodiscard]] formula_kind kind() const noexcept { return kind_; }
    [[nodiscard]] const tcp_flow_params& flow() const noexcept { return flow_; }

private:
    formula_kind kind_;
    tcp_flow_params flow_;
    degraded_fb_config degraded_cfg_;
    degraded_fb_predictor degraded_;
};

/// The hybrid FB+HB scheme (§7 future work) behind the unified interface:
/// an FB estimate computed from the epoch's measurement view (with the same
/// staleness fallback as formula_predictor) blended with an HB forecast,
/// weighted by how much history exists (core::hybrid_predictor).
class blended_predictor final : public predictor {
public:
    blended_predictor(std::unique_ptr<hb_predictor> history, double fb_weight_samples,
                      formula_kind kind, tcp_flow_params flow,
                      degraded_fb_config degraded = {});

    [[nodiscard]] prediction predict(const epoch_inputs& in) override;
    void observe(double actual_bps) override;
    void observe_gap() override;
    void reset() override;
    [[nodiscard]] std::unique_ptr<predictor> clone_empty() const override;
    [[nodiscard]] std::string name() const override;

    [[nodiscard]] const hybrid_predictor& blend() const noexcept { return blend_; }

private:
    double fb_weight_samples_;
    formula_kind kind_;
    tcp_flow_params flow_;
    degraded_fb_config degraded_cfg_;
    degraded_fb_predictor degraded_;
    hybrid_predictor blend_;
    std::size_t gaps_{0};
};

}  // namespace tcppred::core
