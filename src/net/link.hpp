// A unidirectional store-and-forward link: finite FIFO drop-tail buffer,
// fixed capacity, fixed propagation delay. The only source of loss and
// queueing delay in the simulator, as in a drop-tail router port.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace tcppred::net {

/// Per-link counters, split by packet kind where loss accounting needs it.
struct link_stats {
    std::uint64_t enqueued{0};
    std::uint64_t delivered{0};
    std::uint64_t dropped{0};
    std::uint64_t bytes_delivered{0};
    double busy_time{0.0};  ///< cumulative transmission time
};

/// An open-loop arrival process that a link admits itself, with no
/// scheduler event (DESIGN.md §13.1). It holds its next arrival's instant
/// and cause; `take()` returns that arrival's size in bytes and draws the
/// following one (an instant of +infinity: no more arrivals). The cause is
/// the instant whose work drew the arrival, as an event's would be.
class arrival_stream {
public:
    [[nodiscard]] double next_at() const noexcept { return next_at_; }
    [[nodiscard]] double next_cause() const noexcept { return next_cause_; }
    virtual std::uint32_t take() = 0;

protected:
    arrival_stream() = default;
    arrival_stream(const arrival_stream&) = delete;
    arrival_stream& operator=(const arrival_stream&) = delete;
    ~arrival_stream() = default;

    double next_at_{std::numeric_limits<double>::infinity()};
    double next_cause_{0.0};
};

/// FIFO drop-tail link.
///
/// `enqueue()` either admits the packet into the buffer or drops it (buffer
/// full). Admitted packets are serialized at `capacity_bps` and delivered to
/// the sink `prop_delay` seconds after their transmission completes.
/// Propagation does not serialize: several packets can be "in flight" on the
/// wire simultaneously.
///
/// Because the link is FIFO, a packet's service start and departure are
/// fixed the moment it is admitted, so no event marks the end of a
/// transmission. Admission schedules the one delivery event, at departure
/// plus propagation (none for a packet nobody receives), and every read of
/// the link's state first settles the departures due by now(): in
/// departure order, each at its own instant, their counters, the fluid
/// integration and the start of the next packet (DESIGN.md §13.1).
///
/// Open-loop cross traffic costs no event either: an attached
/// `arrival_stream` is admitted by the link itself. Before any read or
/// write of its state the link admits every stream arrival due by
/// `(now(), cause())`, in `(instant, cause)` order, each at its own
/// instant and cause through the path `enqueue()` takes, with no delivery.
/// An arrival at exactly now() is due iff its cause precedes the
/// dispatching event's, where its arrival event would have fired (§13.2).
/// That is why stats(), queue_length() and utilization() are not const.
class link {
public:
    /// @param buffer_packets maximum number of packets queued *behind* the
    ///        one in transmission (classic drop-tail buffer size).
    link(sim::scheduler& sched, double capacity_bps, double prop_delay_s,
         std::size_t buffer_packets)
        : sched_(&sched),
          capacity_bps_(capacity_bps),
          prop_delay_(prop_delay_s),
          buffer_packets_(buffer_packets) {}

    link(const link&) = delete;
    link& operator=(const link&) = delete;

    /// Where delivered packets go (next hop's enqueue or endpoint demux).
    void set_sink(std::function<void(packet)> sink) { sink_ = std::move(sink); }

    /// Offer a packet to the link. Returns false (and counts a drop) when
    /// the buffer is full or the packet is hit by random loss. With
    /// `deliver == false` an admitted packet still occupies the buffer and
    /// the wire but never reaches the sink, and costs no event.
    bool enqueue(packet p, bool deliver = true);

    /// Admit `s`'s arrivals from its next one on. The stream must outlive
    /// its attachment.
    void attach(arrival_stream& s) { streams_.push_back(&s); }
    /// Admit the arrivals due by now(), then stop admitting `s`'s.
    void detach(arrival_stream& s);
    /// Admit every attached stream's arrivals due by now(). A stream calls
    /// it before it changes what it will draw next.
    void admit_due() {
        if (!streams_.empty()) admit_streams();
    }

    /// Enable random loss on this link, modelling loss that originates
    /// outside the simulated bottleneck (upstream congestion episodes,
    /// noisy access links). Loss follows a time-based Gilbert-Elliott
    /// process: the link alternates between a good state (no extra loss)
    /// and bad episodes during which every arrival is dropped. Episode
    /// durations are exponential with mean `burst_duration_s`; episode
    /// frequency is derived so the long-run loss fraction equals
    /// `probability`. With burst_duration_s == 0 this degenerates to
    /// independent per-packet (Bernoulli) loss.
    void set_random_loss(double probability, std::uint64_t seed,
                         double burst_duration_s = 0.0);

    /// Schedule a transient outage: every arrival in [from_s, until_s) is
    /// dropped (a routing blackout / dead interface), deterministically and
    /// without consuming any RNG draws. A later call replaces the window.
    void set_outage(double from_s, double until_s) {
        admit_due();
        outage_from_ = from_s;
        outage_until_ = until_s;
    }

    // --- fluid background load (cross_model::fluid; DESIGN.md §13.5) ---
    //
    // Aggregate unresponsive cross traffic modelled as a piecewise-constant
    // fluid rate instead of per-packet events. The fluid occupies capacity
    // and buffer space: packets arriving to the link wait behind the fluid
    // backlog queued ahead of them (FIFO) and are dropped when packets plus
    // fluid exceed the buffer. Fluid arriving while the server is busy with
    // a packet queues behind the packets already waiting.

    /// Change the aggregate fluid arrival rate by `delta_bps` (sources call
    /// this on start/stop and at on/off transitions). Enables fluid
    /// accounting on first use.
    void add_fluid_rate(double delta_bps);
    [[nodiscard]] double fluid_rate_bps() const noexcept { return fluid_rate_; }
    /// Mean packet size used to convert fluid bits into buffer slots.
    void set_fluid_mean_packet_bytes(double bytes) {
        admit_due();
        fluid_pkt_bits_ = bytes * 8.0;
    }

    [[nodiscard]] double capacity_bps() const noexcept { return capacity_bps_; }
    [[nodiscard]] double prop_delay_s() const noexcept { return prop_delay_; }
    [[nodiscard]] std::size_t buffer_packets() const noexcept { return buffer_packets_; }
    /// Packets in the link: the one in transmission plus those queued.
    [[nodiscard]] std::size_t queue_length() {
        catch_up();
        return fifo_.size();
    }
    [[nodiscard]] const link_stats& stats() {
        catch_up();
        return stats_;
    }

    /// Serialization time of a packet of `bytes` on this link.
    [[nodiscard]] double tx_time(std::uint32_t bytes) const noexcept {
        return static_cast<double>(bytes) * 8.0 / capacity_bps_;
    }

    /// Fraction of time the link transmitted since construction (or since
    /// the given origin time).
    [[nodiscard]] double utilization(double since = 0.0) {
        catch_up();
        const double span = sched_->now() - since;
        return span > 0.0 ? stats_.busy_time / span : 0.0;
    }

private:
    /// An admitted packet. FIFO service fixes its interval at admission:
    /// it starts when the link is free (at once, or at its predecessor's
    /// departure) and departs `tx` later.
    struct admitted {
        double starts;
        double departs;
        double tx;                ///< serialization plus the fluid served ahead
        double fluid_ahead_bits;  ///< fluid that arrived before it (FIFO)
        std::uint32_t size_bytes;
    };

    /// Admit the stream arrivals due by now(), then retire the departures
    /// due by now().
    void catch_up() {
        admit_due();
        settle(sched_->now(), sched_->cause());
    }
    void admit_streams();
    /// Offer `size_bytes` at instant `now` on behalf of the work of instant
    /// `cause`: outage, random loss, settle, drop-tail, FIFO push. Returns
    /// false (and counts a drop) when the packet is lost.
    bool admit(double now, double cause, std::uint32_t size_bytes);
    /// Retire the departures due by `now`. One at exactly `now` is due when
    /// the packet started before `cause`, i.e. where an event caused by the
    /// start would dispatch among those of `cause` (DESIGN.md §13.2).
    void settle(double now, double cause);
    /// Account a packet's service start: its busy time and the fluid it
    /// flushes ahead of itself.
    void begin_service(const admitted& a);
    /// Integrate the fluid process up to `now` under the current server
    /// state; must be called at every state-transition or rate-change point.
    void advance_fluid(double now);

    sim::scheduler* sched_;
    double capacity_bps_;
    double prop_delay_;
    std::size_t buffer_packets_;
    [[nodiscard]] bool random_loss_hit(double now);

    std::function<void(packet)> sink_;
    std::deque<admitted> fifo_;  ///< front: in transmission; the rest queued
    std::vector<arrival_stream*> streams_;  ///< attached open-loop arrivals
    bool fluid_active_{false};
    double fluid_rate_{0.0};        ///< aggregate fluid arrival rate, bps
    double fluid_tail_bits_{0.0};   ///< fluid behind the last queued packet
    double fluid_total_bits_{0.0};  ///< all unserved fluid (tail + attributed)
    double fluid_updated_{0.0};     ///< last integration instant
    double fluid_pkt_bits_{1500.0 * 8.0};
    double outage_from_{0.0};
    double outage_until_{0.0};  ///< <= outage_from_: no outage scheduled
    double random_loss_{0.0};
    double loss_burst_s_{0.0};
    bool in_bad_state_{false};
    double state_until_{0.0};
    std::optional<sim::rng> loss_rng_;
    link_stats stats_{};
};

}  // namespace tcppred::net
