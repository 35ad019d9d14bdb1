#include "core/fb_formulas.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace tcppred::core {

namespace {

constexpr double k_mss = k_mss_bytes;  ///< M as the formulas compute with it
constexpr double k_b = k_segs_per_ack;

// Strong types make an out-of-domain probability unrepresentable upstream;
// what remains to check here are the invariants the types cannot carry.
void check_inputs(const tcp_flow_params& f, seconds rtt) {
    TCPPRED_EXPECTS(f.max_window.value() > 0.0);
    TCPPRED_EXPECTS(rtt.value() > 0.0);
}

[[nodiscard]] double window_bound_bps(const tcp_flow_params& f, double rtt_s) {
    return f.max_window.value() * 8.0 / rtt_s;
}

/// Probability Q(p, w) that a loss indication ends in a timeout (full PFTK).
[[nodiscard]] double pftk_q(double p, double w) {
    if (w < 1.0) w = 1.0;
    const double q1 = 1.0 - std::pow(1.0 - p, 3.0);
    const double qw = 1.0 - std::pow(1.0 - p, w);
    if (qw <= 0.0) return 1.0;
    const double tail = w > 3.0 ? 1.0 - std::pow(1.0 - p, w - 3.0) : 0.0;
    const double q = q1 * (1.0 + std::pow(1.0 - p, 3.0) * tail) / qw;
    return std::min(1.0, q);
}

/// G(p) = 1 + p + 2p^2 + 4p^3 + 8p^4 + 16p^5 + 32p^6 (timeout backoff series).
[[nodiscard]] double pftk_g(double p) {
    double g = 1.0, term = 1.0;
    double coef = 1.0;
    for (int i = 1; i <= 6; ++i) {
        term *= p;
        g += coef * term;
        coef = (i == 1) ? 2.0 : coef * 2.0;
    }
    return g;
}

}  // namespace

bits_per_second square_root_throughput(const tcp_flow_params& f, seconds rtt,
                                       probability loss) {
    check_inputs(f, rtt);
    const double rtt_s = rtt.value();
    const double p = loss.value();
    const double bound = window_bound_bps(f, rtt_s);
    if (p <= 0.0) return bits_per_second{bound};
    const double rate =
        k_mss * 8.0 / (rtt_s * std::sqrt(2.0 * k_b * p / 3.0));
    return bits_per_second{std::min(rate, bound)};
}

bits_per_second pftk_throughput(const tcp_flow_params& f, seconds rtt,
                                probability loss, seconds t0) {
    check_inputs(f, rtt);
    TCPPRED_EXPECTS(t0.value() > 0.0);
    const double rtt_s = rtt.value();
    const double p = loss.value();
    const double bound = window_bound_bps(f, rtt_s);
    if (p <= 0.0) return bits_per_second{bound};
    const double b = k_b;
    const double denom = rtt_s * std::sqrt(2.0 * b * p / 3.0) +
                         t0.value() * std::min(1.0, std::sqrt(3.0 * b * p / 8.0)) * p *
                             (1.0 + 32.0 * p * p);
    const double rate = k_mss * 8.0 / denom;
    return bits_per_second{std::min(rate, bound)};
}

bits_per_second pftk_full_throughput(const tcp_flow_params& f, seconds rtt,
                                     probability loss, seconds t0) {
    check_inputs(f, rtt);
    TCPPRED_EXPECTS(t0.value() > 0.0);
    const double rtt_s = rtt.value();
    const double bound = window_bound_bps(f, rtt_s);
    if (loss.value() <= 0.0) return bits_per_second{bound};
    const double p = std::min(loss.value(), 0.99);

    const double b = k_b;
    const double wm = std::max(1.0, f.max_window.value() / k_mss);
    const double c = (2.0 + b) / (3.0 * b);
    const double w_unconstrained =
        c + std::sqrt(8.0 * (1.0 - p) / (3.0 * b * p) + c * c);

    double segments_per_second;
    if (w_unconstrained < wm) {
        const double w = w_unconstrained;
        const double q = pftk_q(p, w);
        const double num = (1.0 - p) / p + w + q / (1.0 - p);
        const double den =
            rtt_s * (b / 2.0 * w + 1.0) + q * pftk_g(p) * t0.value() / (1.0 - p);
        segments_per_second = num / den;
    } else {
        const double q = pftk_q(p, wm);
        const double num = (1.0 - p) / p + wm + q / (1.0 - p);
        const double den = rtt_s * (b / 8.0 * wm + (1.0 - p) / (p * wm) + 2.0) +
                           q * pftk_g(p) * t0.value() / (1.0 - p);
        segments_per_second = num / den;
    }
    return bits_per_second{std::min(segments_per_second * k_mss * 8.0, bound)};
}

double expected_slow_start_segments(probability loss, double d) {
    TCPPRED_EXPECTS(d >= 0.0);
    const double p = loss.value();
    if (p == 0.0) return d + 1.0;  // limit of the expression as p -> 0 is d + 1
    return (1.0 - std::pow(1.0 - p, d)) * (1.0 - p) / p + 1.0;
}

bits_per_second short_transfer_throughput(const tcp_flow_params& f, seconds rtt,
                                          probability loss, seconds t0,
                                          double d_segments,
                                          double init_window_segments) {
    check_inputs(f, rtt);
    if (d_segments <= 0) return bits_per_second{0.0};

    const double d_ss = std::min(expected_slow_start_segments(loss, d_segments),
                                 d_segments);
    // Slow-start duration: window grows by factor gamma = 1 + 1/b per RTT;
    // cumulative segments after r rounds: w1 (gamma^r - 1)/(gamma - 1).
    const double gamma = 1.0 + 1.0 / k_b;
    const double rounds =
        std::log(d_ss * (gamma - 1.0) / init_window_segments + 1.0) / std::log(gamma);
    const double t_ss = rounds * rtt.value();

    const double steady_bps = pftk_throughput(f, rtt, loss, t0).value();
    const double remaining_segments = d_segments - d_ss;
    const double t_steady = remaining_segments * k_mss * 8.0 / steady_bps;
    const double total_time = t_ss + t_steady;
    if (total_time <= 0.0) return bits_per_second{steady_bps};
    return bits_per_second{d_segments * k_mss * 8.0 / total_time};
}

probability pftk_implied_loss(const tcp_flow_params& f, seconds rtt, seconds t0,
                              bits_per_second throughput) {
    check_inputs(f, rtt);
    const double throughput_bps = throughput.value();
    if (throughput_bps <= 0.0) return probability{1.0};
    if (throughput_bps >= window_bound_bps(f, rtt.value())) return probability{0.0};

    // pftk_throughput is strictly decreasing in p: bisection.
    double lo = 1e-9, hi = 1.0;
    for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (pftk_throughput(f, rtt, probability{mid}, t0).value() > throughput_bps) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return probability{0.5 * (lo + hi)};
}

}  // namespace tcppred::core
