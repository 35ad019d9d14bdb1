#include "tcp/tcp.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace tcppred::tcp {

namespace {
constexpr double k_rtt_alpha = 1.0 / 8.0;  // RFC 6298 SRTT gain
constexpr double k_rtt_beta = 1.0 / 4.0;   // RFC 6298 RTTVAR gain
// RFC 5681 / RFC 6298 (1 s initial RTO) and paper-era values, except the
// minimum RTO: the 0.2 s Linux-style floor, not RFC 6298's 1 s.
constexpr std::uint32_t k_init_cwnd_segments = 2;
constexpr std::uint32_t k_dupack_threshold = 3;
constexpr double k_initial_rto_s = 1.0;
constexpr double k_min_rto_s = 0.2;
constexpr double k_max_rto_s = 60.0;
constexpr double k_delack_timeout_s = 0.1;
}  // namespace

tcp_sender::tcp_sender(sim::scheduler& sched, net::conduit& conduit, net::flow_id flow,
                       tcp_config cfg)
    : sched_(&sched),
      conduit_(&conduit),
      flow_(flow),
      cfg_(cfg),
      cwnd_(static_cast<double>(k_init_cwnd_segments)),
      rto_(k_initial_rto_s) {
    rwnd_segments_ = std::max<std::uint64_t>(1, cfg_.max_window_bytes / core::k_mss_bytes);
    ssthresh_ = static_cast<double>(
        cfg_.initial_ssthresh_segments > 0
            ? std::min(cfg_.initial_ssthresh_segments, rwnd_segments_)
            : rwnd_segments_);
    conduit_->on_deliver_ack(flow_, [this](net::packet p) { on_ack(p); });
}

tcp_sender::~tcp_sender() {
    disarm_rto();
    sched_->cancel(rto_event_);  // eager: the callback captures `this`
    rto_event_live_ = false;
    conduit_->on_deliver_ack(flow_, nullptr);
}

void tcp_sender::start() {
    if (active_) return;
    active_ = true;
    try_send();
}

void tcp_sender::stop() { active_ = false; }

void tcp_sender::quiesce() {
    active_ = false;
    quiesced_ = true;
    disarm_rto();
    sched_->cancel(rto_event_);  // a quiesced sender schedules nothing more
    rto_event_live_ = false;
}

std::uint64_t tcp_sender::usable_window() const noexcept {
    double wnd = cwnd_;
    if (in_recovery_) wnd += static_cast<double>(inflation_);
    wnd = std::min(wnd, static_cast<double>(rwnd_segments_));
    return std::max<std::uint64_t>(static_cast<std::uint64_t>(wnd), 1);
}

tcp_sender::seg_meta& tcp_sender::meta(std::uint64_t seq) {
    return metas_.at(metas_head_ + static_cast<std::size_t>(seq - snd_una_));
}

void tcp_sender::metas_pop_front(std::size_t n) {
    metas_head_ += n;
    TCPPRED_ASSERT(metas_head_ <= metas_.size());
    if (metas_head_ == metas_.size()) {
        metas_clear();
    } else if (metas_head_ > metas_.size() / 2 && metas_head_ >= 64) {
        // Amortized compaction: each element is moved at most once per
        // doubling of consumed prefix, keeping ACK processing O(newly acked).
        metas_.erase(metas_.begin(), metas_.begin() + static_cast<std::ptrdiff_t>(metas_head_));
        metas_head_ = 0;
    }
}

void tcp_sender::try_send() {
    const std::uint64_t wnd = usable_window();
    // A stopped sender offers no new data but still drains retransmissions
    // of data already on the wire (stop() vs quiesce()).
    while ((active_ || next_seq_ < max_seq_sent_) && flight() < wnd) {
        const std::uint64_t seq = next_seq_++;
        metas_.emplace_back();
        transmit(seq);
    }
}

void tcp_sender::transmit(std::uint64_t seq) {
    // Anything below the high-water mark has been on the wire before: a
    // retransmission (first transmissions after a go-back-N rewind included),
    // and therefore invalid for RTT timing (Karn's algorithm).
    const bool is_retx = seq < max_seq_sent_;
    max_seq_sent_ = std::max(max_seq_sent_, seq + 1);

    seg_meta& m = meta(seq);
    m.send_time = sched_->now();
    if (is_retx) m.retransmitted = true;

    net::packet p;
    p.flow = flow_;
    p.kind = net::packet_kind::tcp_data;
    p.size_bytes = core::k_mss_bytes + net::tcp_ip_header_bytes;
    p.seq = seq;
    p.sent_at = sched_->now();
    conduit_->send_data(p);
    ++stats_.segments_sent;
    if (is_retx) ++stats_.retransmits;
    if (!rto_armed_) arm_rto(rto_);
}

void tcp_sender::on_ack(const net::packet& p) {
    if (quiesced_) return;
    const std::uint64_t ack = p.ack;
    if (cfg_.variant == tcp_variant::sack && p.sack_end > p.sack_begin) {
        apply_sack_block(std::max(p.sack_begin, ack), p.sack_end);
    }
    if (ack > snd_una_) {
        const std::uint64_t newly = ack - snd_una_;
        on_new_ack(ack, newly);
        return;
    }
    if (ack == snd_una_ && flight() > 0) {
        ++dupacks_;
        if (in_recovery_) {
            if (cfg_.variant == tcp_variant::sack) {
                sack_send_during_recovery();
            } else {
                // Each extra dupack signals a departure from the pipe:
                // inflate the usable window transiently.
                ++inflation_;
                try_send();
            }
        } else if (dupacks_ == k_dupack_threshold) {
            enter_fast_recovery();
        }
    }
}

void tcp_sender::apply_sack_block(std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t seq = begin; seq < end && seq < next_seq_; ++seq) {
        if (seq < snd_una_) continue;
        seg_meta& m = meta(seq);
        if (!m.sacked) {
            m.sacked = true;
            highest_sacked_ = std::max(highest_sacked_, seq + 1);
        }
    }
}

std::uint64_t tcp_sender::sacked_count() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t i = metas_head_; i < metas_.size(); ++i) {
        n += metas_[i].sacked ? 1 : 0;
    }
    return n;
}

void tcp_sender::sack_send_during_recovery() {
    // RFC 3517-style pipe algorithm, simplified: keep cwnd segments in the
    // pipe; fill it first with retransmissions of segments inferred lost
    // (unSACKed below the highest SACKed seq, not yet retransmitted this
    // recovery episode), then with new data.
    for (;;) {
        const std::uint64_t pipe = flight() - sacked_count();
        if (pipe >= usable_window()) return;
        bool sent = false;
        for (std::uint64_t seq = snd_una_; seq < highest_sacked_ && seq < next_seq_;
             ++seq) {
            seg_meta& m = meta(seq);
            if (!m.sacked && m.retx_epoch != recovery_epoch_) {
                m.retx_epoch = recovery_epoch_;
                transmit(seq);
                sent = true;
                break;
            }
        }
        if (!sent) {
            if (!active_) return;
            const std::uint64_t seq = next_seq_++;
            metas_.emplace_back();
            transmit(seq);
        }
    }
}

void tcp_sender::on_new_ack(std::uint64_t ack, std::uint64_t newly) {
    // After a go-back-N rewind the receiver's cumulative ACK can run ahead
    // of our resend pointer (it buffered the out-of-order tail): skip what
    // it already holds.
    if (ack > next_seq_) next_seq_ = ack;

    // RTT sample from the highest newly-acked segment we still have timing
    // for, only if it was never retransmitted (Karn's algorithm).
    const std::uint64_t covered = std::min<std::uint64_t>(newly, metas_live());
    if (covered > 0) {
        const seg_meta& last = metas_[metas_head_ + static_cast<std::size_t>(covered - 1)];
        if (!last.retransmitted) update_rtt(sched_->now() - last.send_time);
    }

    snd_una_ = ack;
    metas_pop_front(static_cast<std::size_t>(covered));
    stats_.segments_delivered += newly;
    backoff_ = 0;
    dupacks_ = 0;

    if (in_recovery_) {
        if (ack >= recover_point_) {
            // Full ACK: recovery complete, deflate to ssthresh.
            in_recovery_ = false;
            inflation_ = 0;
            cwnd_ = ssthresh_;
        } else if (cfg_.variant == tcp_variant::sack) {
            // SACK partial ACK: the scoreboard drives what to resend next.
            inflation_ = 0;
            sack_send_during_recovery();
        } else {
            // NewReno partial ACK (RFC 6582): the ACK exposes the next hole;
            // retransmit it immediately, drop the transient inflation and
            // stay in recovery. This is what keeps multi-loss windows from
            // ending in RTOs.
            inflation_ = 0;
            transmit(snd_una_);
        }
    } else if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(newly);  // slow start
        if (cwnd_ > ssthresh_) cwnd_ = ssthresh_;
    } else {
        cwnd_ += static_cast<double>(newly) / cwnd_;  // congestion avoidance
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(rwnd_segments_));
    cwnd_ = std::max(cwnd_, 1.0);

    if (flight() == 0) {
        disarm_rto();
    } else {
        disarm_rto();
        arm_rto(rto_);
    }
    try_send();
}

void tcp_sender::enter_fast_recovery() {
    ++stats_.fast_recoveries;
    ssthresh_ = std::max(static_cast<double>(flight()) / 2.0, 2.0);

    if (cfg_.variant == tcp_variant::tahoe) {
        // Tahoe: no fast recovery — slow-start from one segment, resending
        // from the loss point (go-back-N), like a timeout without backoff.
        cwnd_ = 1.0;
        dupacks_ = 0;
        next_seq_ = snd_una_;
        metas_clear();
        highest_sacked_ = snd_una_;
        try_send();
        disarm_rto();
        arm_rto(rto_);
        return;
    }

    recover_point_ = next_seq_;
    in_recovery_ = true;
    ++recovery_epoch_;
    cwnd_ = ssthresh_;
    inflation_ = k_dupack_threshold;
    if (cfg_.variant == tcp_variant::sack) {
        seg_meta& first = meta(snd_una_);
        first.retx_epoch = recovery_epoch_;
        transmit(snd_una_);
        sack_send_during_recovery();
    } else {
        transmit(snd_una_);
    }
    disarm_rto();
    arm_rto(rto_);
}

void tcp_sender::update_rtt(double sample) {
    stats_.rtt_samples.push_back(sample);
    if (!have_rtt_) {
        srtt_ = sample;
        rttvar_ = sample / 2.0;
        have_rtt_ = true;
    } else {
        rttvar_ = (1.0 - k_rtt_beta) * rttvar_ + k_rtt_beta * std::abs(srtt_ - sample);
        srtt_ = (1.0 - k_rtt_alpha) * srtt_ + k_rtt_alpha * sample;
    }
    rto_ = std::clamp(srtt_ + 4.0 * rttvar_, k_min_rto_s, k_max_rto_s);
}

void tcp_sender::schedule_rto_event(double when) {
    rto_event_live_ = true;
    rto_event_when_ = when;
    rto_event_ = sched_->schedule_at(when, [this] { on_rto_event(); });
}

void tcp_sender::arm_rto(double timeout_s) {
    rto_armed_ = true;
    rto_deadline_ = sched_->now() + timeout_s;
    if (!rto_event_live_) {
        schedule_rto_event(rto_deadline_);
    } else if (rto_deadline_ < rto_event_when_) {
        // The pending event fires too late for the new deadline (RTT
        // collapsed, or a backed-off timer was replaced): replace it.
        sched_->cancel(rto_event_);
        schedule_rto_event(rto_deadline_);
    }
    // Otherwise the pending event fires at or before the deadline and
    // lazily re-schedules itself for the remainder.
}

void tcp_sender::disarm_rto() {
    rto_armed_ = false;
    // The pending event, if any, stays in the scheduler and no-ops on fire
    // (or is superseded by a later arm_rto). The destructor and quiesce()
    // cancel it eagerly so `this` is never touched after teardown.
}

void tcp_sender::on_rto_event() {
    rto_event_live_ = false;
    if (!rto_armed_) return;  // lazily disarmed since scheduling
    if (sched_->now() < rto_deadline_) {
        // Re-armed to a later deadline since this event was scheduled:
        // sleep for the remainder.
        schedule_rto_event(rto_deadline_);
        return;
    }
    rto_armed_ = false;
    if (flight() == 0) return;

    ++stats_.timeouts;
    ssthresh_ = std::max(static_cast<double>(flight()) / 2.0, 2.0);
    cwnd_ = 1.0;
    in_recovery_ = false;
    inflation_ = 0;
    dupacks_ = 0;
    backoff_ = std::min<std::uint32_t>(backoff_ + 1, cfg_.max_rto_backoff);
    // Go-back-N: rewind the send pointer to the first unacknowledged
    // segment and resend forward from there as the window reopens — absent
    // SACK this is how a timeout recovers a multi-loss window. Segments the
    // receiver already buffered are re-ACKed past in on_new_ack.
    next_seq_ = snd_una_;
    metas_clear();
    highest_sacked_ = snd_una_;
    try_send();  // cwnd = 1: retransmits exactly the first hole
    const double backed_off =
        std::min(rto_ * static_cast<double>(1u << backoff_), k_max_rto_s);
    disarm_rto();
    arm_rto(backed_off);
}

tcp_receiver::tcp_receiver(sim::scheduler& sched, net::conduit& conduit, net::flow_id flow,
                           tcp_config cfg)
    : sched_(&sched), conduit_(&conduit), flow_(flow), cfg_(cfg) {
    conduit_->on_deliver_data(flow_, [this](net::packet p) { on_data(p); });
}

tcp_receiver::~tcp_receiver() {
    sched_->cancel(delack_event_);
    conduit_->on_deliver_data(flow_, nullptr);
}

void tcp_receiver::on_data(const net::packet& p) {
    last_arrival_ = p.seq;
    if (p.seq == rcv_next_) {
        ++rcv_next_;
        // Drain the contiguous run at the front in one erase (the vector is
        // sorted, so consecutive buffered seqs are adjacent).
        std::size_t run = 0;
        while (run < out_of_order_.size() && out_of_order_[run] == rcv_next_) {
            ++run;
            ++rcv_next_;
        }
        if (run > 0) {
            out_of_order_.erase(out_of_order_.begin(),
                                out_of_order_.begin() + static_cast<std::ptrdiff_t>(run));
        }
        if (!out_of_order_.empty()) {
            // Still a hole: keep the sender's dupack clock running.
            send_ack_now();
        } else if (cfg_.delayed_ack) {
            maybe_delay_ack();
        } else {
            send_ack_now();
        }
        return;
    }
    if (p.seq > rcv_next_) {
        const auto it = std::lower_bound(out_of_order_.begin(), out_of_order_.end(), p.seq);
        if (it == out_of_order_.end() || *it != p.seq) out_of_order_.insert(it, p.seq);
        send_ack_now();  // duplicate ACK
        return;
    }
    // Below rcv_next_: spurious retransmission; re-ACK immediately.
    send_ack_now();
}

void tcp_receiver::maybe_delay_ack() {
    ++unacked_segments_;
    if (unacked_segments_ >= core::k_segs_per_ack) {
        send_ack_now();
        return;
    }
    delack_armed_ = true;
    const std::uint64_t generation = ++delack_generation_;
    delack_event_ = sched_->schedule_in(k_delack_timeout_s, [this, generation] {
        if (delack_armed_ && generation == delack_generation_) send_ack_now();
    });
}

void tcp_receiver::send_ack_now() {
    unacked_segments_ = 0;
    if (delack_armed_) {
        // O(1) with the pooled scheduler: reclaim the pending timer instead
        // of letting it fire as a generation-checked no-op.
        sched_->cancel(delack_event_);
        delack_armed_ = false;
    }
    ++delack_generation_;

    net::packet a;
    a.flow = flow_;
    a.kind = net::packet_kind::tcp_ack;
    a.size_bytes = net::tcp_ip_header_bytes;
    a.ack = rcv_next_;
    // SACK option: report the out-of-order run containing the most recently
    // received segment (one block per ACK, as real stacks lead with the
    // most recent block).
    if (!out_of_order_.empty()) {
        const auto it =
            std::lower_bound(out_of_order_.begin(), out_of_order_.end(), last_arrival_);
        if (it != out_of_order_.end() && *it == last_arrival_) {
            // Expand to the contiguous run around last_arrival_: in a sorted
            // unique vector, consecutive seqs sit in adjacent slots.
            auto lo = it, hi = it;
            while (lo != out_of_order_.begin() && *(lo - 1) == *lo - 1) --lo;
            while (hi + 1 != out_of_order_.end() && *(hi + 1) == *hi + 1) ++hi;
            a.sack_begin = *lo;
            a.sack_end = *hi + 1;
        }
    }
    a.sent_at = sched_->now();
    conduit_->send_ack(a);
    ++acks_sent_;
}

tcp_connection::tcp_connection(sim::scheduler& sched, net::conduit& conduit,
                               net::flow_id flow, tcp_config cfg)
    : sender_(sched, conduit, flow, cfg), receiver_(sched, conduit, flow, cfg) {}

}  // namespace tcppred::tcp
