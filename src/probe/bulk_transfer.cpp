#include "probe/bulk_transfer.hpp"

#include <algorithm>

#include "core/contracts.hpp"
#include "obs/counters.hpp"

namespace tcppred::probe {

bulk_transfer::bulk_transfer(sim::scheduler& sched, net::conduit& conduit,
                             net::flow_id flow, core::seconds duration,
                             tcp::tcp_config cfg)
    : sched_(&sched),
      duration_s_(duration.value()),
      conn_(std::make_unique<tcp::tcp_connection>(sched, conduit, flow, cfg)) {
    TCPPRED_EXPECTS(duration_s_ > 0.0);
}

bulk_transfer::~bulk_transfer() {
    for (const auto h : pending_events_) sched_->cancel(h);
}

void bulk_transfer::add_prefix_checkpoints(const std::vector<double>& prefixes) {
    prefixes_.insert(prefixes_.end(), prefixes.begin(), prefixes.end());
}

void bulk_transfer::set_fault_abort(core::seconds at) {
    TCPPRED_EXPECTS(at.value() > 0.0);
    abort_at_s_ = at.value() < duration_s_ ? at.value() : 0.0;
}

void bulk_transfer::start(std::function<void(const transfer_result&)> on_done) {
    on_done_ = std::move(on_done);
    const double t0 = sched_->now();

    for (const double prefix : prefixes_) {
        // Prefixes past an injected abort never materialize: the flow is
        // gone before the checkpoint fires.
        if (abort_at_s_ > 0.0 && prefix >= abort_at_s_) continue;
        pending_events_.push_back(sched_->schedule_in(prefix, [this, prefix] {
            const double goodput =
                static_cast<double>(conn_->sender().acked_bytes()) * 8.0 / prefix;
            result_.prefix_goodput_bps.emplace_back(prefix, goodput);
        }));
    }

    conn_->start();
    const double lifetime = abort_at_s_ > 0.0 ? abort_at_s_ : duration_s_;
    pending_events_.push_back(sched_->schedule_in(
        lifetime, [this, t0] { finalize(t0, abort_at_s_ > 0.0); }));
}

void bulk_transfer::finalize(double t0, bool aborted) {
    conn_->quiesce();
    done_ = true;
    result_.duration_s = sched_->now() - t0;
    result_.bytes = conn_->sender().acked_bytes();
    // A transfer that delivered nothing still "measured" a throughput of
    // less than one segment per lifetime; report that floor instead of a
    // hard zero so downstream relative errors stay finite.
    if (result_.bytes == 0) result_.bytes = core::k_mss_bytes;
    result_.tcp_stats = conn_->sender().stats();
    result_.aborted = aborted;

    static const obs::counter c_transfers = obs::counter::get("probe.transfers");
    c_transfers.add();

    if (on_done_) on_done_(result_);
}

}  // namespace tcppred::probe
