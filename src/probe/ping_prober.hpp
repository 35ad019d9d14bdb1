// Periodic small-packet RTT / loss-rate prober — the "homespun ping utility"
// of the paper (§4.1): a 41-byte probe every fixed interval, echoed by the
// far end over the reverse path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/units.hpp"
#include "net/packet.hpp"
#include "net/path.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace tcppred::probe {

/// Outcome of a probing session.
struct ping_result {
    std::uint64_t sent{0};
    std::uint64_t received{0};
    std::vector<double> rtts;  ///< RTT of each answered probe, seconds
    /// Per-probe outcome by sequence number (1 = echoed, 0 = lost) -- the
    /// input to loss-event collapsing (core/loss_events.hpp).
    std::vector<std::uint8_t> outcomes;
    /// Probes that never reached the path because an injected measurement
    /// fault swallowed them (they still count as sent/lost above, exactly
    /// like a real echo timeout would).
    std::uint64_t injected_timeouts{0};
    /// True when the session was cut short by an injected fault, so the
    /// sample counts are below the configured count.
    bool truncated{false};

    /// Loss fraction among probes sent (p̂ or p̃ in the paper).
    [[nodiscard]] core::probability loss_rate() const {
        return core::probability{
            sent == 0 ? 0.0
                      : 1.0 - static_cast<double>(received) / static_cast<double>(sent)};
    }
    /// Mean RTT of answered probes (T̂ or T̃).
    [[nodiscard]] core::seconds mean_rtt() const noexcept {
        if (rtts.empty()) return core::seconds{0.0};
        double s = 0.0;
        for (const double r : rtts) s += r;
        return core::seconds{s / static_cast<double>(rtts.size())};
    }
};

/// A probe with no echo after this long counts as lost.
inline constexpr core::seconds k_ping_reply_timeout{2.0};

/// Probing-session parameters. Each probe is net::ping_probe_bytes long.
struct ping_config {
    core::seconds interval{0.015};
    std::uint64_t count{400};
};

/// Injected measurement faults of one session, which the epoch runner
/// resolves from the epoch's sim::epoch_fault_plan (DESIGN.md §10).
struct ping_faults {
    /// P[a probe vanishes before reaching the path], drawn per probe from
    /// a stream seeded with `seed`.
    double timeout_rate{0.0};
    std::uint64_t seed{0};
    std::uint64_t truncate_at{0};  ///< > 0: end the session after this many probes
};

/// Sends `count` probes spaced `interval` apart and collects echoes; the
/// session completes once the last probe is either answered or timed out.
class ping_prober {
public:
    ping_prober(sim::scheduler& sched, net::duplex_path& path, net::flow_id flow,
                ping_config cfg = {}, ping_faults faults = {});

    /// Cancels all pending probe/timeout events and unregisters from the
    /// path: a prober is safe to destroy at any point of the simulation.
    ~ping_prober();

    /// Begin probing now; `on_done` fires when the session completes.
    void start(std::function<void(const ping_result&)> on_done = nullptr);

    [[nodiscard]] bool done() const noexcept { return done_; }
    [[nodiscard]] const ping_result& result() const noexcept { return result_; }

private:
    void send_probe();
    void check_done();

    sim::scheduler* sched_;
    net::duplex_path* path_;
    net::flow_id flow_;
    ping_config cfg_;
    ping_faults faults_;
    std::function<void(const ping_result&)> on_done_;

    struct pending {
        double sent_at{0.0};
        sim::event_handle timeout{};
        bool outstanding{false};
    };
    /// Direct-indexed by probe sequence number (sequential from 0), replacing
    /// the per-probe hash-map find/erase on the echo path; bounded by
    /// cfg_.count entries per session.
    std::vector<pending> outstanding_;
    sim::event_handle next_probe_event_{};
    std::optional<sim::rng> fault_rng_;
    std::uint64_t next_seq_{0};
    std::uint64_t resolved_{0};  ///< answered or timed out
    bool sending_done_{false};
    bool done_{false};
    ping_result result_{};
};

}  // namespace tcppred::probe
