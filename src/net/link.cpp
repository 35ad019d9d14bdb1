#include "net/link.hpp"

#include <algorithm>

namespace tcppred::net {

void link::set_random_loss(double probability, std::uint64_t seed,
                           double burst_duration_s) {
    random_loss_ = probability;
    loss_burst_s_ = burst_duration_s;
    loss_rng_.emplace(seed);
    in_bad_state_ = false;
    if (burst_duration_s > 0.0 && probability > 0.0 && probability < 1.0) {
        // Start inside a good period of the stationary process.
        const double mean_good = burst_duration_s * (1.0 - probability) / probability;
        state_until_ = sched_->now() + loss_rng_->exponential(mean_good);
    } else {
        state_until_ = 0.0;
    }
}

bool link::random_loss_hit() {
    if (random_loss_ <= 0.0 || !loss_rng_) return false;
    if (loss_burst_s_ <= 0.0) return loss_rng_->chance(random_loss_);

    // Gilbert-Elliott in time: advance the two-state machine lazily to now.
    // Mean good duration G solves loss = bad/(bad+good): G = B(1-p)/p.
    const double now = sched_->now();
    while (now >= state_until_) {
        if (in_bad_state_) {
            in_bad_state_ = false;
            const double mean_good = loss_burst_s_ * (1.0 - random_loss_) / random_loss_;
            state_until_ += loss_rng_->exponential(mean_good);
        } else {
            in_bad_state_ = true;
            state_until_ += loss_rng_->exponential(loss_burst_s_);
        }
    }
    return in_bad_state_;
}

void link::set_outage(double from_s, double until_s) {
    outage_from_ = from_s;
    outage_until_ = until_s;
}

void link::add_fluid_rate(double delta_bps) {
    settle();
    const double now = sched_->now();
    if (!fluid_active_) {
        fluid_active_ = true;
        fluid_updated_ = now;
    }
    advance_fluid(now);  // integrate the old rate up to the change instant
    fluid_rate_ += delta_bps;
    if (fluid_rate_ < 0.0) fluid_rate_ = 0.0;
}

void link::advance_fluid(double now) {
    const double dt = now - fluid_updated_;
    fluid_updated_ = now;
    if (dt <= 0.0) return;
    if (!fifo_.empty()) {
        // The server is held by a packet: fluid accumulates behind the queue.
        const double arrived = fluid_rate_ * dt;
        fluid_tail_bits_ += arrived;
        fluid_total_bits_ += arrived;
    } else {
        // Idle server: fluid is served at capacity while arriving at its
        // rate. All fluid is tail fluid here (no packets are queued).
        const double delta = (fluid_rate_ - capacity_bps_) * dt;
        fluid_tail_bits_ = std::max(0.0, fluid_tail_bits_ + delta);
        fluid_total_bits_ = fluid_tail_bits_;
    }
    // Fluid overflowing the shared drop-tail buffer is lost, exactly like a
    // cross packet arriving to a full queue.
    const double waiting = fifo_.empty() ? 0.0 : static_cast<double>(fifo_.size() - 1);
    const double cap_bits = (static_cast<double>(buffer_packets_) - waiting) * fluid_pkt_bits_;
    if (fluid_total_bits_ > cap_bits) {
        const double excess = fluid_total_bits_ - std::max(cap_bits, 0.0);
        const double removed = std::min(excess, fluid_tail_bits_);
        fluid_tail_bits_ -= removed;
        fluid_total_bits_ -= removed;
    }
}

void link::settle() {
    const double now = sched_->now();
    while (!fifo_.empty()) {
        const admitted& head = fifo_.front();
        if (head.departs > now) return;
        if (head.departs == now && !(head.starts < sched_->cause())) return;
        // The head leaves onto the wire; the next packet starts serving.
        if (fluid_active_) advance_fluid(head.departs);
        ++stats_.delivered;
        stats_.bytes_delivered += head.size_bytes;
        fifo_.pop_front();
        if (!fifo_.empty()) begin_service(fifo_.front());
    }
}

void link::begin_service(const admitted& a) {
    if (a.fluid_ahead_bits > 0.0) {
        // The fluid queued ahead of this packet is served first (FIFO).
        fluid_total_bits_ = std::max(0.0, fluid_total_bits_ - a.fluid_ahead_bits);
    }
    stats_.busy_time += a.tx;
}

bool link::enqueue(packet p, bool deliver) {
    const double now = sched_->now();
    if (now >= outage_from_ && now < outage_until_) {
        ++stats_.dropped;
        return false;
    }
    if (random_loss_hit()) {
        ++stats_.dropped;
        return false;
    }
    settle();
    if (fluid_active_) advance_fluid(now);
    // An idle server takes the packet unless the fluid queued ahead fills
    // the buffer on its own; behind a busy one the waiting packets count.
    const bool idle = fifo_.empty();
    if (!idle || fluid_active_) {
        double occupancy = idle ? 0.0 : static_cast<double>(fifo_.size() - 1);
        if (fluid_active_) occupancy += fluid_total_bits_ / fluid_pkt_bits_;
        if (occupancy >= static_cast<double>(buffer_packets_)) {
            ++stats_.dropped;
            return false;
        }
    }
    ++stats_.enqueued;
    // The fluid that arrived since the previous admission is served ahead
    // of this packet: its flush time stretches the packet's service.
    const double ahead = fluid_tail_bits_;
    fluid_tail_bits_ = 0.0;
    double tx = tx_time(p.size_bytes);
    if (ahead > 0.0) tx += ahead / capacity_bps_;
    const double starts = idle ? now : fifo_.back().departs;
    const double departs = starts + tx;
    fifo_.push_back(admitted{starts, departs, tx, ahead, p.size_bytes});
    if (idle) begin_service(fifo_.front());
    if (deliver) {
        // Caused by the departure: among same-instant events it takes the
        // slot of a delivery scheduled at the departure (DESIGN.md §13.2).
        auto delivery = [this, p] {
            if (sink_) sink_(p);
        };
        static_assert(sim::small_callback::fits_inline<decltype(delivery)>,
                      "a delivery must not spill to the heap: grow k_inline_bytes");
        sched_->schedule_at(departs + prop_delay_, departs, std::move(delivery));
    }
    return true;
}

}  // namespace tcppred::net
