// IPerf-like bulk TCP transfer: run a Reno connection for a fixed duration
// and report its average goodput, plus goodput over prefixes of its
// lifetime (used by the paper's transfer-length experiment, Fig. 11).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/units.hpp"
#include "net/path.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp.hpp"

namespace tcppred::probe {

/// Result of a timed bulk transfer.
struct transfer_result {
    double duration_s{0.0};
    std::uint64_t bytes{0};
    /// (prefix length, goodput over that prefix) pairs, in request order.
    std::vector<std::pair<double, double>> prefix_goodput_bps;
    tcp::sender_stats tcp_stats;
    /// True when the transfer was cut short by an injected abort; goodput is
    /// then averaged over the shorter actual lifetime.
    bool aborted{false};

    /// Average goodput over the whole transfer (R in the paper).
    [[nodiscard]] core::bits_per_second goodput() const noexcept {
        return core::bits_per_second{
            duration_s > 0.0 ? static_cast<double>(bytes) * 8.0 / duration_s : 0.0};
    }
};

/// Runs one timed bulk transfer over a conduit.
class bulk_transfer {
public:
    bulk_transfer(sim::scheduler& sched, net::conduit& conduit, net::flow_id flow,
                  core::seconds duration, tcp::tcp_config cfg = {});

    /// Cancels the checkpoint/end events: safe to destroy mid-transfer.
    ~bulk_transfer();

    /// Request goodput checkpoints at the given prefix lengths (seconds from
    /// start; must be called before start()).
    void add_prefix_checkpoints(const std::vector<double>& prefixes);

    /// Inject an abort `at` seconds after start (sender host crash, control
    /// connection lost): the transfer ends there with `aborted` set. Must be
    /// called before start(); values >= the configured duration are ignored.
    void set_fault_abort(core::seconds at);

    /// Begin the transfer now; `on_done` fires when the duration elapses (or
    /// the injected abort cuts it short).
    void start(std::function<void(const transfer_result&)> on_done = nullptr);

    [[nodiscard]] bool done() const noexcept { return done_; }
    [[nodiscard]] const transfer_result& result() const noexcept { return result_; }
    [[nodiscard]] tcp::tcp_connection& connection() noexcept { return *conn_; }

private:
    void finalize(double t0, bool aborted);

    sim::scheduler* sched_;
    double duration_s_;
    double abort_at_s_{0.0};  ///< 0 = no injected abort
    std::unique_ptr<tcp::tcp_connection> conn_;
    std::vector<double> prefixes_;
    std::vector<sim::event_handle> pending_events_;
    std::function<void(const transfer_result&)> on_done_;
    bool done_{false};
    transfer_result result_{};
};

}  // namespace tcppred::probe
