// TCP steady-state throughput formulas used by formula-based (FB)
// prediction: the Mathis "square-root" model, the PFTK approximation
// (Eq. 2 of the paper), the full PFTK model (stand-in for the revised
// formula of Chen et al., §4.2.9), the Cardwell slow-start model, and the
// inverse mapping from observed throughput to the congestion-event
// probability p' (Goyal et al., §3.3).
//
// All formulas are pure functions of path characteristics. Every input and
// output carries its unit in the type (core/units.hpp): rates are
// `bits_per_second`, times `seconds`, loss rates `probability` — swapping
// two differently-united arguments is a compile error. Domain invariants
// the types cannot express (T > 0, positive flow parameters) are contract
// preconditions (core/contracts.hpp).
#pragma once

#include <cstdint>

#include "core/units.hpp"

namespace tcppred::core {

// M, b and the two transfers' W, shared by Eq. 3 and the simulated TCP
// (tcp/tcp.hpp) and transfers (testbed/epoch_runner.cpp).
inline constexpr std::uint32_t k_mss_bytes = 1460;  ///< M: segment payload
inline constexpr std::uint32_t k_segs_per_ack = 2;  ///< b: segments per (delayed) ACK
inline constexpr std::uint64_t k_target_window_bytes = 1 << 20;  ///< W = 1 MB
/// W = 20 KB: the window-limited companion transfer (§4.2.8).
inline constexpr std::uint64_t k_companion_window_bytes = 20 * 1024;

/// The flow parameter a formula takes per call: the window W.
struct tcp_flow_params {
    bytes max_window{static_cast<double>(k_target_window_bytes)};
};

/// Mathis et al. "square-root" model (Eq. 1):
///   E[R] = M / (T * sqrt(2bp/3)), capped at W/T.
/// For p == 0 returns the window bound W/T.
[[nodiscard]] bits_per_second square_root_throughput(const tcp_flow_params& f,
                                                     seconds rtt, probability p);

/// PFTK approximate model (Eq. 2):
///   E[R] = min( M / (T sqrt(2bp/3) + T0 min(1, sqrt(3bp/8)) p (1+32p^2)), W/T ).
/// For p == 0 returns the window bound W/T.
[[nodiscard]] bits_per_second pftk_throughput(const tcp_flow_params& f, seconds rtt,
                                              probability p, seconds t0);

/// Full PFTK model (Padhye et al., "full" equation with timeout-probability
/// term Q and window limitation), used here as the revised/corrected PFTK
/// variant evaluated in §4.2.9.
[[nodiscard]] bits_per_second pftk_full_throughput(const tcp_flow_params& f,
                                                   seconds rtt, probability p,
                                                   seconds t0);

/// Expected number of segments delivered by the initial slow start for a
/// d-segment transfer under loss rate p (Cardwell et al., quoted in §4.2.7):
///   E[d_ss] = (1 - (1-p)^d)(1-p)/p + 1.
[[nodiscard]] double expected_slow_start_segments(probability p, double d);

/// Approximate goodput of a *short* transfer of `d` segments: slow-start
/// phase (exponential window growth from `init_window` segments, growth
/// factor gamma = 1 + 1/b) followed by steady-state at the PFTK rate. The
/// documented extension predictor for short flows (paper future work /
/// Arlitt et al. approach).
[[nodiscard]] bits_per_second short_transfer_throughput(
    const tcp_flow_params& f, seconds rtt, probability p, seconds t0,
    double d_segments, double init_window_segments = 2.0);

/// Invert the PFTK approximate model: find the loss probability p' that
/// would make PFTK output the observed throughput. This is the
/// "congestion-event probability implied by the achieved rate" used when
/// comparing ping-measured loss rates with what TCP actually experienced.
/// Returns a value in [1e-9, 1]; returns 0 when the throughput is at or
/// above the window bound W/T.
[[nodiscard]] probability pftk_implied_loss(const tcp_flow_params& f, seconds rtt,
                                            seconds t0, bits_per_second throughput);

/// Retransmission-timeout estimate the FB predictor uses (§3.1):
///   T0_hat = max(1 s, 2 * SRTT), with SRTT taken as the a-priori RTT.
[[nodiscard]] inline seconds estimate_t0(seconds rtt) {
    return rtt.value() * 2.0 > 1.0 ? seconds{rtt.value() * 2.0} : seconds{1.0};
}

}  // namespace tcppred::core
