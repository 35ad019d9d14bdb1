#include "probe/pathload.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "obs/counters.hpp"

namespace tcppred::probe {

namespace {

constexpr std::uint32_t k_stream_packets = 60;
constexpr std::uint32_t k_packet_bytes = 600;
constexpr double k_resolution_fraction = 0.08;  ///< stop when (high-low)/high below this
constexpr core::seconds k_inter_stream_gap{0.10};  ///< drain time between streams
constexpr double k_loss_fraction_increasing = 0.10;  ///< stream loss that implies rate > avail-bw

double median_of(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    double m = v[mid];
    if (v.size() % 2 == 0) {
        const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
        m = 0.5 * (m + lo);
    }
    return m;
}

}  // namespace

owd_trend classify_trend(const std::vector<double>& owds) {
    if (owds.size() < 6) return owd_trend::ambiguous;

    // Group medians: Γ = sqrt(K) groups, as in pathload.
    const auto groups = static_cast<std::size_t>(std::sqrt(static_cast<double>(owds.size())));
    const std::size_t per_group = owds.size() / groups;
    std::vector<double> medians;
    medians.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        const auto begin = owds.begin() + static_cast<std::ptrdiff_t>(g * per_group);
        const auto end = (g + 1 == groups) ? owds.end()
                                           : begin + static_cast<std::ptrdiff_t>(per_group);
        medians.push_back(median_of(std::vector<double>(begin, end)));
    }
    if (medians.size() < 3) return owd_trend::ambiguous;

    // PCT: fraction of consecutive increases.
    std::size_t increases = 0;
    double abs_diff_sum = 0.0;
    for (std::size_t i = 1; i < medians.size(); ++i) {
        if (medians[i] > medians[i - 1]) ++increases;
        abs_diff_sum += std::abs(medians[i] - medians[i - 1]);
    }
    const double pct =
        static_cast<double>(increases) / static_cast<double>(medians.size() - 1);
    // PDT: net increase relative to total variation.
    const double pdt =
        abs_diff_sum > 0.0 ? (medians.back() - medians.front()) / abs_diff_sum : 0.0;

    const bool pct_up = pct > 0.66;
    const bool pct_down = pct < 0.54;
    const bool pdt_up = pdt > 0.55;
    const bool pdt_down = pdt < 0.45;
    if (pct_up || pdt_up) {
        if (!(pct_down || pdt_down)) return owd_trend::increasing;
        return owd_trend::ambiguous;
    }
    if (pct_down && pdt_down) return owd_trend::non_increasing;
    return owd_trend::ambiguous;
}

pathload::pathload(sim::scheduler& sched, net::duplex_path& path, net::flow_id flow,
                   pathload_config cfg)
    : sched_(&sched),
      path_(&path),
      flow_(flow),
      cfg_(cfg),
      low_(k_pathload_min_rate.value()),
      high_(cfg.max_rate.value()) {
    TCPPRED_EXPECTS(cfg_.max_rate >= k_pathload_min_rate);
    path_->on_deliver_forward(flow_, [this](net::packet p) {
        ++stream_received_;
        stream_owds_.push_back(sched_->now() - p.sent_at);
    });
}

pathload::~pathload() {
    sched_->cancel(chain_event_);
    path_->on_deliver_forward(flow_, nullptr);
}

void pathload::start(std::function<void(const pathload_result&)> on_done) {
    on_done_ = std::move(on_done);
    send_stream(0.5 * (low_ + high_));
}

void pathload::send_stream(double rate_bps) {
    current_rate_ = rate_bps;
    stream_received_ = 0;
    stream_owds_.clear();
    ++streams_sent_;
    const double spacing = static_cast<double>(k_packet_bytes) * 8.0 / rate_bps;
    emit_packet(0, k_stream_packets, spacing);
}

void pathload::emit_packet(std::uint32_t index, std::uint32_t total, double spacing) {
    net::packet p;
    p.flow = flow_;
    p.kind = net::packet_kind::probe;
    p.size_bytes = k_packet_bytes;
    p.seq = index;
    p.sent_at = sched_->now();
    path_->send_forward(p);

    if (index + 1 < total) {
        chain_event_ = sched_->schedule_in(spacing, [this, index, total, spacing] {
            emit_packet(index + 1, total, spacing);
        });
    } else {
        // Allow the tail of the stream (and any queue we built) to land.
        chain_event_ = sched_->schedule_in(k_inter_stream_gap.value() + 4.0 * spacing,
                                           [this] { conclude_stream(); });
    }
}

void pathload::conclude_stream() {
    // Injected non-convergence: the tool keeps probing (spending real
    // measurement time, as the paper's failed runs did) but its verdicts
    // never tighten the bracket, so it exhausts the stream budget and fails.
    if (cfg_.fault_nonconvergence) {
        if (streams_sent_ >= cfg_.max_streams) {
            finish();
            return;
        }
        send_stream(0.5 * (low_ + high_));
        return;
    }
    const double lost_fraction =
        1.0 - static_cast<double>(stream_received_) / static_cast<double>(k_stream_packets);

    owd_trend trend;
    if (lost_fraction > k_loss_fraction_increasing) {
        trend = owd_trend::increasing;  // the stream itself overloaded the path
    } else {
        trend = classify_trend(stream_owds_);
    }

    switch (trend) {
        case owd_trend::increasing:
            high_ = current_rate_;
            break;
        case owd_trend::non_increasing:
            low_ = current_rate_;
            break;
        case owd_trend::ambiguous:
            // Grey region: bias the bracket conservatively downward, as
            // pathload shrinks its grey window.
            high_ = 0.5 * (high_ + current_rate_);
            break;
    }

    const bool converged = (high_ - low_) / std::max(high_, 1.0) < k_resolution_fraction;
    if (converged || streams_sent_ >= cfg_.max_streams || high_ <= low_) {
        finish();
        return;
    }
    send_stream(0.5 * (low_ + high_));
}

void pathload::finish() {
    done_ = true;
    result_.low_bps = low_;
    result_.high_bps = std::max(high_, low_);
    result_.streams_used = streams_sent_;

    static const obs::counter c_runs = obs::counter::get("probe.pathload_runs");
    static const obs::counter c_streams = obs::counter::get("probe.pathload_streams");
    c_runs.add();
    c_streams.add(static_cast<std::uint64_t>(streams_sent_));

    if (on_done_) on_done_(result_);
}

}  // namespace tcppred::probe
