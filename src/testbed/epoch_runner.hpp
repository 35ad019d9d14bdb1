// One measurement epoch (Fig. 1 of the paper): avail-bw measurement
// (pathload), then periodic probing (p̂, T̂), then the bulk target transfer
// with concurrent probing (R, p̃, T̃), then the window-limited companion
// transfer — all against the epoch's background load.
//
// Durations are compressed relative to the paper's wall-clock (Design
// decision in DESIGN.md §2): sample *counts* are kept in the paper's
// regime, absolute seconds are not.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "net/cross_traffic.hpp"
#include "probe/ping_prober.hpp"
#include "sim/fault_injector.hpp"
#include "tcp/tcp.hpp"
#include "testbed/load_process.hpp"
#include "testbed/path_catalog.hpp"

namespace tcppred::testbed {

/// Per-epoch measurement-failure flags (bitmask in epoch_measurement).
/// Recorded, never thrown: a failed measurement is data, not an error, and
/// a faulty epoch must not abort a campaign.
enum epoch_fault_flag : std::uint32_t {
    fault_none = 0,
    fault_pathload_failed = 1u << 0,   ///< avail-bw estimate missing (NaN)
    fault_ping_degraded = 1u << 1,     ///< a-priori ping saw injected timeouts
    fault_ping_partial = 1u << 2,      ///< a-priori ping session truncated
    fault_transfer_aborted = 1u << 3,  ///< target transfer ended early
    fault_path_outage = 1u << 4,       ///< transient blackout during transfer
};

/// True when a fault touched the epoch's a-priori (pre-transfer)
/// measurements. This decides which flags fail the FB predictor's inputs
/// (DESIGN.md §10.2): every a-priori flag.
[[nodiscard]] constexpr bool apriori_faulty(std::uint32_t flags) noexcept {
    return (flags & (fault_pathload_failed | fault_ping_degraded | fault_ping_partial)) !=
           0;
}

/// True when the measured throughput itself is unreliable.
[[nodiscard]] constexpr bool actual_faulty(std::uint32_t flags) noexcept {
    return (flags & (fault_transfer_aborted | fault_path_outage)) != 0;
}

/// Epoch phase parameters. Durations carry their unit in the type
/// (core/units.hpp). The target and companion transfers run with
/// core::k_target_window_bytes and core::k_companion_window_bytes, the W
/// of Eq. 3.
struct epoch_config {
    core::seconds warmup{2.0};  ///< let cross traffic reach steady state
    /// p̂/T̂ measurement (defaults: 400 x 15 ms). The during-flow ping (p̃/T̃)
    /// probes at the same interval for the whole transfer. Both sessions'
    /// faults come from run_epoch's fault plan alone.
    probe::ping_config prior_ping{};
    core::seconds transfer{10.0};     ///< target-flow duration
    bool run_small_window{true};
    bool run_pathload{true};
    /// Goodput checkpoints within the target transfer (campaign 2 /
    /// Fig. 11); empty for campaign 1.
    std::vector<double> prefix_s{};
    /// Template TCP parameters (window is overridden per transfer). The
    /// testbed default bounds the first slow-start overshoot the way real
    /// stacks do on repeat paths (cached ssthresh); see tcp_config.
    tcp::tcp_config tcp = [] {
        tcp::tcp_config c;
        c.variant = tcp::tcp_variant::sack;  // paper-era endpoints (Linux 2.4)
        c.initial_ssthresh_segments = 128;
        c.max_rto_backoff = 2;
        return c;
    }();
    /// How the open-loop background traffic is realized at the bottleneck
    /// (net/cross_traffic.hpp). Defaults to the exact per-packet model; the
    /// fluid aggregate trades packet granularity for speed: it admits no
    /// cross packets at all (DESIGN.md §13.5).
    net::cross_model cross{net::cross_model::packet};
};

/// Everything one epoch measures. Under fault injection a field may be NaN:
/// the measurement failed and the value is missing (`fault_flags` says why);
/// with faults off every field is a real number, exactly as before the
/// fault layer existed.
struct epoch_measurement {
    // A-priori measurements feeding the FB predictor (Eq. 3).
    double avail_bw_bps{0.0};  ///< Â
    double phat{0.0};          ///< p̂
    double phat_events{0.0};   ///< p̂ with consecutive losses collapsed (Goyal p')
    double that_s{0.0};        ///< T̂
    // Periodic-probing view during the target flow (§4.2.3).
    double ptilde{0.0};        ///< p̃
    double ttilde_s{0.0};      ///< T̃
    // Target-flow outcomes.
    double r_large_bps{0.0};   ///< R with W = 1 MB
    double r_small_bps{0.0};   ///< R with W = 20 KB
    std::vector<std::pair<double, double>> prefix_goodputs;  ///< (prefix s, bps)
    // TCP's own view of the path during the large transfer (§3.3 ablation).
    double tcp_loss_rate{0.0};       ///< retransmitted / sent segments
    double tcp_event_rate{0.0};      ///< congestion events / sent segments
    double tcp_mean_rtt_s{0.0};      ///< mean of TCP's RTT samples
    // Diagnostics.
    double sim_time_s{0.0};
    std::uint64_t events{0};
    std::uint32_t fault_flags{fault_none};  ///< epoch_fault_flag bitmask
};

/// Run a single epoch, fully deterministically from (profile, load, seed)
/// and the epoch's resolved measurement faults (default: none), which the
/// campaign plans from its fault_profile (DESIGN.md §10).
[[nodiscard]] epoch_measurement run_epoch(const path_profile& profile,
                                          const load_state& load, std::uint64_t seed,
                                          const epoch_config& cfg = {},
                                          const sim::epoch_fault_plan& faults = {});

}  // namespace tcppred::testbed
