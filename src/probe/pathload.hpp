// SLoPS available-bandwidth estimator in the style of pathload
// (Jain & Dovrolis): send constant-rate packet streams, decide from the
// one-way-delay trend whether the stream rate exceeds the avail-bw, and
// binary-search the rate until the bracket is tight or the stream budget is
// exhausted.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/units.hpp"
#include "net/packet.hpp"
#include "net/path.hpp"
#include "sim/scheduler.hpp"

namespace tcppred::probe {

/// Trend of one-way delays within a probing stream.
enum class owd_trend { increasing, non_increasing, ambiguous };

/// Pairwise Comparison Test / Pairwise Difference Test verdict on a series
/// of one-way delays (applied to per-group medians, as in pathload).
/// Exposed for unit testing.
[[nodiscard]] owd_trend classify_trend(const std::vector<double>& owds);

/// Result of an avail-bw estimation run.
struct pathload_result {
    double low_bps{0.0};    ///< final bracket lower bound
    double high_bps{0.0};   ///< final bracket upper bound
    int streams_used{0};

    /// Point estimate Â: the bracket midpoint.
    [[nodiscard]] core::bits_per_second estimate() const noexcept {
        return core::bits_per_second{0.5 * (low_bps + high_bps)};
    }
};

/// Lower bound of the search bracket; the stream shape is fixed in
/// pathload.cpp.
inline constexpr core::bits_per_second k_pathload_min_rate{50e3};

/// SLoPS measurement parameters.
struct pathload_config {
    core::bits_per_second max_rate{12e6};  ///< upper bound of the search bracket
    int max_streams{10};
    /// Injected measurement fault: the run spends its full stream budget but
    /// never converges (the bracket never tightens), mirroring the paper's
    /// pathload failures on loaded paths. The epoch runner sets it from the
    /// epoch's fault plan and records the estimate as missing.
    bool fault_nonconvergence{false};
};

/// Iterative SLoPS measurement over a duplex path.
class pathload {
public:
    pathload(sim::scheduler& sched, net::duplex_path& path, net::flow_id flow,
             pathload_config cfg = {});

    /// Cancels the pending stream event and unregisters from the path.
    ~pathload();

    /// Start measuring; `on_done` fires with the final bracket.
    void start(std::function<void(const pathload_result&)> on_done = nullptr);

    [[nodiscard]] bool done() const noexcept { return done_; }
    [[nodiscard]] const pathload_result& result() const noexcept { return result_; }

private:
    void send_stream(double rate_bps);
    void emit_packet(std::uint32_t index, std::uint32_t total, double spacing);
    void conclude_stream();
    void finish();

    sim::scheduler* sched_;
    net::duplex_path* path_;
    net::flow_id flow_;
    pathload_config cfg_;
    std::function<void(const pathload_result&)> on_done_;

    sim::event_handle chain_event_{};
    double low_;
    double high_;
    double current_rate_{0.0};
    int streams_sent_{0};
    std::uint32_t stream_received_{0};
    std::vector<double> stream_owds_;
    bool done_{false};
    pathload_result result_{};
};

}  // namespace tcppred::probe
