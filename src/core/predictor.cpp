#include "core/predictor.hpp"

#include <utility>

#include "core/lso.hpp"

namespace tcppred::core {

namespace {

fb_formula to_fb_formula(formula_kind kind) {
    switch (kind) {
        case formula_kind::square_root: return fb_formula::square_root;
        case formula_kind::pftk_full: return fb_formula::pftk_full;
        // min_wa forces p = 0, so Eq. 3 always takes the lossless branch and
        // the lossy-branch formula choice is irrelevant.
        case formula_kind::pftk:
        case formula_kind::min_wa: return fb_formula::pftk;
    }
    return fb_formula::pftk;
}

prediction_source source_of(fb_branch branch) {
    switch (branch) {
        case fb_branch::model_based: return prediction_source::model_based;
        case fb_branch::avail_bw: return prediction_source::avail_bw;
        case fb_branch::window_bound: return prediction_source::window_bound;
    }
    return prediction_source::model_based;
}

/// The measurement view Eq. 3 actually consumes for this formula kind:
/// min_wa discards the loss estimate so the lossless min(W/T̂, Â) branch is
/// evaluated unconditionally.
std::optional<path_measurement> formula_view(formula_kind kind,
                                             const epoch_inputs& in) {
    std::optional<path_measurement> meas = in.measurement;
    if (kind == formula_kind::min_wa && meas) meas->loss_rate = probability{0.0};
    return meas;
}

}  // namespace

const char* to_string(prediction_source s) noexcept {
    switch (s) {
        case prediction_source::history: return "history";
        case prediction_source::model_based: return "model_based";
        case prediction_source::avail_bw: return "avail_bw";
        case prediction_source::window_bound: return "window_bound";
        case prediction_source::blended: return "blended";
    }
    return "unknown";
}

std::unique_ptr<predictor> predictor::clone_empty() const {
    lso_share share;
    return clone_into(share);
}

// ---- history_predictor

history_predictor::history_predictor(std::unique_ptr<hb_predictor> inner)
    : inner_(std::move(inner)) {}

prediction history_predictor::predict(const epoch_inputs& /*in*/) {
    prediction p;
    p.inputs_used.source = prediction_source::history;
    p.inputs_used.history_samples = inner_->history_size();
    const double forecast = inner_->predict();
    if (std::isnan(forecast)) return p;  // status stays no_history
    p.value_bps = forecast;
    p.status = prediction_status::ok;
    return p;
}

void history_predictor::observe(double actual_bps) { inner_->observe(actual_bps); }
void history_predictor::observe_gap() { inner_->observe_gap(); }
void history_predictor::reset() { inner_->reset(); }

std::unique_ptr<predictor> history_predictor::clone_into(lso_share& share) const {
    return std::make_unique<history_predictor>(inner_->clone_into(share));
}

std::string history_predictor::name() const { return inner_->name(); }

// ---- formula_predictor

formula_predictor::formula_predictor(formula_kind kind, tcp_flow_params flow,
                                     degraded_fb_config degraded)
    : kind_(kind),
      flow_(flow),
      degraded_cfg_(degraded),
      degraded_(flow, to_fb_formula(kind), degraded) {}

prediction formula_predictor::predict(const epoch_inputs& in) {
    prediction p;
    p.status = prediction_status::unavailable;
    // An absent epoch (no measurement, not failed either) carries no
    // a-priori view: skip without aging the staleness fallback, so a later
    // failed epoch can still reuse the last good measurement.
    if (!in.measurement && !in.failed) return p;

    const auto out = degraded_.predict(formula_view(kind_, in));
    if (!out) return p;  // nothing usable within the staleness bound
    p.value_bps = out->pred.throughput.value();
    p.status = prediction_status::ok;
    p.inputs_used.source = source_of(out->pred.branch);
    p.inputs_used.staleness = out->staleness;
    return p;
}

void formula_predictor::reset() {
    degraded_ = degraded_fb_predictor(flow_, to_fb_formula(kind_), degraded_cfg_);
}

std::unique_ptr<predictor> formula_predictor::clone_into(lso_share& /*share*/) const {
    return std::make_unique<formula_predictor>(kind_, flow_, degraded_cfg_);
}

std::string formula_predictor::name() const {
    switch (kind_) {
        case formula_kind::square_root: return "fb:sqrt";
        case formula_kind::pftk: return "fb:pftk";
        case formula_kind::pftk_full: return "fb:pftk-full";
        case formula_kind::min_wa: return "fb:minwa";
    }
    return "fb";
}

// ---- blended_predictor

blended_predictor::blended_predictor(std::unique_ptr<hb_predictor> history,
                                     double fb_weight_samples, formula_kind kind,
                                     tcp_flow_params flow, degraded_fb_config degraded)
    : fb_weight_samples_(fb_weight_samples),
      kind_(kind),
      flow_(flow),
      degraded_cfg_(degraded),
      degraded_(flow, to_fb_formula(kind), degraded),
      blend_(std::move(history), fb_weight_samples) {}

prediction blended_predictor::predict(const epoch_inputs& in) {
    prediction p;
    p.inputs_used.source = prediction_source::blended;
    p.inputs_used.history_samples = blend_.history().history_size();

    if (in.measurement || in.failed) {
        const auto fb = degraded_.predict(formula_view(kind_, in));
        blend_.set_formula_prediction(fb ? fb->pred.throughput.value()
                                         : std::numeric_limits<double>::quiet_NaN());
        if (fb) p.inputs_used.staleness = fb->staleness;
    } else {
        // No measurement side this epoch (synthetic series): blend from
        // history alone rather than an FB estimate of some other epoch.
        blend_.set_formula_prediction(std::numeric_limits<double>::quiet_NaN());
    }

    const double forecast = blend_.predict();
    if (std::isnan(forecast)) return p;  // no history AND no formula input
    p.value_bps = forecast;
    p.status = prediction_status::ok;
    return p;
}

void blended_predictor::observe(double actual_bps) { blend_.observe(actual_bps); }

void blended_predictor::observe_gap() {
    ++gaps_;
    blend_.observe_gap();
}

void blended_predictor::reset() {
    blend_.reset();
    blend_.set_formula_prediction(std::numeric_limits<double>::quiet_NaN());
    degraded_ = degraded_fb_predictor(flow_, to_fb_formula(kind_), degraded_cfg_);
}

std::unique_ptr<predictor> blended_predictor::clone_into(lso_share& share) const {
    return std::make_unique<blended_predictor>(blend_.history().clone_into(share),
                                               fb_weight_samples_, kind_, flow_,
                                               degraded_cfg_);
}

std::string blended_predictor::name() const {
    return "hybrid:" + blend_.history().name();
}

}  // namespace tcppred::core
