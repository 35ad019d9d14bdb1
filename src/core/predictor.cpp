#include "core/predictor.hpp"

#include <utility>

#include "core/lso.hpp"

namespace tcppred::core {

namespace {

prediction_source source_of(fb_branch branch) {
    switch (branch) {
        case fb_branch::model_based: return prediction_source::model_based;
        case fb_branch::avail_bw: return prediction_source::avail_bw;
        case fb_branch::window_bound: return prediction_source::window_bound;
    }
    return prediction_source::model_based;
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

formula_predictor::formula_predictor(formula_kind kind, tcp_flow_params flow)
    : kind_(kind), flow_(flow) {}

prediction formula_predictor::predict(const epoch_inputs& in) {
    prediction p;
    p.status = prediction_status::unavailable;
    // An absent epoch (no measurement, not failed either) carries no
    // a-priori view: skip without aging the staleness fallback, so a later
    // failed epoch can still reuse the last good measurement.
    if (!in.measurement && !in.failed) return p;

    if (in.measurement) {
        last_good_ = in.measurement;
        staleness_ = 0;
    } else {
        ++staleness_;
    }
    if (!last_good_ || staleness_ > k_max_staleness) return p;  // nothing usable
    const fb_prediction fb = fb_predict(flow_, *last_good_, kind_);
    p.value_bps = fb.throughput.value();
    p.status = prediction_status::ok;
    p.inputs_used.source = source_of(fb.branch);
    p.inputs_used.staleness = staleness_;
    return p;
}

void formula_predictor::reset() {
    last_good_.reset();
    staleness_ = 0;
}

std::unique_ptr<predictor> formula_predictor::clone_into(lso_share& /*share*/) const {
    return std::make_unique<formula_predictor>(kind_, flow_);
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
                                     double fb_weight_samples, tcp_flow_params flow)
    : history_(std::move(history)),
      k_(fb_weight_samples),
      fb_(formula_kind::pftk, flow) {}

prediction blended_predictor::predict(const epoch_inputs& in) {
    prediction p;
    p.inputs_used.source = prediction_source::blended;
    p.inputs_used.history_samples = history_->history_size();

    // An absent epoch leaves the FB side unavailable (and unaged): the
    // blend then forecasts from history alone rather than from an FB
    // estimate of some other epoch.
    const prediction fb = fb_.predict(in);
    if (fb.usable()) p.inputs_used.staleness = fb.inputs_used.staleness;
    const double hb = history_->predict();
    double forecast = std::isnan(hb) ? fb.value_bps : hb;
    if (!std::isnan(hb) && !std::isnan(fb.value_bps)) {
        const auto n = static_cast<double>(p.inputs_used.history_samples);
        const double w = n / (n + k_);
        forecast = w * hb + (1.0 - w) * fb.value_bps;
    }
    if (std::isnan(forecast)) return p;  // no history AND no formula input
    p.value_bps = forecast;
    p.status = prediction_status::ok;
    return p;
}

void blended_predictor::observe(double actual_bps) { history_->observe(actual_bps); }

void blended_predictor::observe_gap() { history_->observe_gap(); }

void blended_predictor::reset() {
    history_->reset();
    fb_.reset();
}

std::unique_ptr<predictor> blended_predictor::clone_into(lso_share& share) const {
    return std::make_unique<blended_predictor>(history_->clone_into(share), k_, fb_.flow());
}

std::string blended_predictor::name() const {
    std::string out = "hybrid:";
    out += history_->name();
    if (k_ != k_default_fb_weight_samples) {
        out += ':';
        out += spec_number(k_);
    }
    return out;
}

}  // namespace tcppred::core
