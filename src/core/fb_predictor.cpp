#include "core/fb_predictor.hpp"

#include "core/contracts.hpp"

namespace tcppred::core {

fb_prediction fb_predict(const tcp_flow_params& flow, const path_measurement& m,
                         formula_kind kind, seconds t0) {
    TCPPRED_EXPECTS(m.rtt.value() > 0.0);
    TCPPRED_EXPECTS(m.avail_bw.value() >= 0.0);
    if (t0.value() <= 0.0) t0 = estimate_t0(m.rtt);

    fb_prediction out;
    if (kind != formula_kind::min_wa && m.loss_rate.value() > 0.0) {
        out.branch = fb_branch::model_based;
        if (kind == formula_kind::square_root) {
            out.throughput = square_root_throughput(flow, m.rtt, m.loss_rate);
        } else if (kind == formula_kind::pftk_full) {
            out.throughput = pftk_full_throughput(flow, m.rtt, m.loss_rate, t0);
        } else {
            out.throughput = pftk_throughput(flow, m.rtt, m.loss_rate, t0);
        }
        return out;
    }

    const double window_bound = flow.max_window.value() * 8.0 / m.rtt.value();
    if (m.avail_bw.value() > 0.0 && m.avail_bw.value() < window_bound) {
        out.branch = fb_branch::avail_bw;
        out.throughput = m.avail_bw;
    } else {
        out.branch = fb_branch::window_bound;
        out.throughput = bits_per_second{window_bound};
    }
    return out;
}

}  // namespace tcppred::core
