#include "probe/ping_prober.hpp"

#include "core/contracts.hpp"
#include "obs/counters.hpp"

namespace tcppred::probe {

ping_prober::ping_prober(sim::scheduler& sched, net::duplex_path& path, net::flow_id flow,
                         ping_config cfg, ping_faults faults)
    : sched_(&sched), path_(&path), flow_(flow), cfg_(cfg), faults_(faults) {
    TCPPRED_EXPECTS(cfg_.interval.value() > 0.0);
    TCPPRED_EXPECTS(faults_.timeout_rate >= 0.0 && faults_.timeout_rate <= 1.0);
    if (faults_.timeout_rate > 0.0) fault_rng_.emplace(faults_.seed);
    // Far end: echo every probe back over the reverse path.
    path_->on_deliver_forward(flow_, [this](net::packet p) {
        net::packet echo = p;
        echo.kind = net::packet_kind::probe_reply;
        path_->send_reverse(echo);
    });
    // Near end: match echoes against outstanding probes.
    path_->on_deliver_reverse(flow_, [this](net::packet p) {
        if (p.seq >= outstanding_.size()) return;
        pending& entry = outstanding_[p.seq];
        if (!entry.outstanding) return;  // echo arrived after timeout
        entry.outstanding = false;
        result_.rtts.push_back(sched_->now() - entry.sent_at);
        ++result_.received;
        if (p.seq < result_.outcomes.size()) result_.outcomes[p.seq] = 1;
        sched_->cancel(entry.timeout);
        ++resolved_;
        check_done();
    });
}

ping_prober::~ping_prober() {
    sched_->cancel(next_probe_event_);
    for (pending& p : outstanding_) {
        if (p.outstanding) sched_->cancel(p.timeout);
    }
    path_->on_deliver_forward(flow_, nullptr);
    path_->on_deliver_reverse(flow_, nullptr);
}

void ping_prober::start(std::function<void(const ping_result&)> on_done) {
    on_done_ = std::move(on_done);
    send_probe();
}

void ping_prober::send_probe() {
    // Injected truncation: the session dies early (the real tool's SSH
    // channel dropped, its host rebooted, ...), leaving partial samples.
    const std::uint64_t budget =
        faults_.truncate_at > 0 && faults_.truncate_at < cfg_.count ? faults_.truncate_at
                                                                   : cfg_.count;
    if (next_seq_ >= budget) {
        if (budget < cfg_.count) result_.truncated = true;
        sending_done_ = true;
        check_done();
        return;
    }
    const std::uint64_t seq = next_seq_++;
    TCPPRED_ASSERT(seq == outstanding_.size());  // sequence numbers are dense
    pending& entry = outstanding_.emplace_back();
    entry.outstanding = true;
    entry.sent_at = sched_->now();
    ++result_.sent;
    if (result_.outcomes.size() <= seq) result_.outcomes.resize(seq + 1, 0);

    // An injected timeout swallows the probe before it reaches the path —
    // indistinguishable from a real no-echo at the measuring end.
    const bool swallowed = fault_rng_ && fault_rng_->chance(faults_.timeout_rate);
    if (swallowed) {
        ++result_.injected_timeouts;
    } else {
        net::packet p;
        p.flow = flow_;
        p.kind = net::packet_kind::probe;
        p.size_bytes = net::ping_probe_bytes;
        p.seq = seq;
        p.sent_at = sched_->now();
        path_->send_forward(p);
    }

    entry.timeout = sched_->schedule_in(k_ping_reply_timeout.value(), [this, seq] {
        pending& out = outstanding_[seq];
        if (out.outstanding) {
            out.outstanding = false;
            ++resolved_;  // timed out: lost
            check_done();
        }
    });
    next_probe_event_ = sched_->schedule_in(cfg_.interval.value(), [this] { send_probe(); });
}

void ping_prober::check_done() {
    const std::uint64_t expected = sending_done_ ? result_.sent : cfg_.count;
    if (done_ || !sending_done_ || resolved_ < expected) return;
    done_ = true;

    // Aggregated once per session (not per probe) so the hot send path stays
    // untouched; all of these are seed-derived logical quantities.
    static const obs::counter c_sessions = obs::counter::get("probe.ping_sessions");
    static const obs::counter c_sent = obs::counter::get("probe.ping_probes_sent");
    static const obs::counter c_recv = obs::counter::get("probe.ping_replies");
    static const obs::counter c_injected =
        obs::counter::get("probe.ping_injected_timeouts");
    c_sessions.add();
    c_sent.add(result_.sent);
    c_recv.add(result_.received);
    if (result_.injected_timeouts > 0) c_injected.add(result_.injected_timeouts);

    if (on_done_) on_done_(result_);
}

}  // namespace tcppred::probe
