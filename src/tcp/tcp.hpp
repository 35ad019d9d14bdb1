// TCP Reno over the simulator: sender (slow start, congestion avoidance,
// fast retransmit / fast recovery, RTO estimation with Karn's algorithm and
// exponential backoff, receiver-window limiting) and receiver (cumulative
// ACKs, delayed ACKs, out-of-order buffering).
//
// Sequence numbers are counted in whole MSS-sized segments — the granularity
// at which Reno's control loop and the PFTK model both operate.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/fb_formulas.hpp"
#include "core/units.hpp"
#include "net/packet.hpp"
#include "net/path.hpp"
#include "sim/scheduler.hpp"

namespace tcppred::tcp {

/// Loss-recovery flavour of the sender.
enum class tcp_variant {
    tahoe,    ///< no fast recovery: any loss indication slow-starts from 1
    newreno,  ///< fast retransmit + NewReno partial-ACK recovery (default)
    sack,     ///< selective acknowledgements with pipe-style recovery
};

/// What a caller chooses per connection; the protocol constants are in
/// tcp.cpp. Segments carry core::k_mss_bytes (M), and a delayed-ACK receiver
/// ACKs every core::k_segs_per_ack (b) segments.
struct tcp_config {
    tcp_variant variant{tcp_variant::newreno};
    /// Receiver advertised window (W); the testbed's transfers use
    /// core::k_target_window_bytes and core::k_companion_window_bytes.
    std::uint64_t max_window_bytes{core::k_target_window_bytes};
    /// Initial slow-start threshold in segments; 0 = unlimited (blind Reno).
    /// Real stacks cache ssthresh per destination, which bounds the first
    /// slow-start overshoot on repeat paths — the testbed uses that.
    std::uint64_t initial_ssthresh_segments{0};
    /// Cap on consecutive RTO doublings (2^n). The protocol value is ~6
    /// (64x); the testbed uses 2 (4x) to compensate for its compressed
    /// transfer durations — a 10 s transfer must not lose its whole
    /// lifetime to a backoff spiral a 50 s transfer would amortize.
    std::uint32_t max_rto_backoff{6};
    bool delayed_ack{true};  ///< ACK every b segments, not every one
};

/// Counters and samples a finished (or running) sender exposes. These feed
/// the throughput measurements and the TCP-sampling ablation (§3.3).
struct sender_stats {
    std::uint64_t segments_sent{0};          ///< transmissions incl. retransmits
    std::uint64_t segments_delivered{0};     ///< cumulative-ACK progress
    std::uint64_t retransmits{0};
    std::uint64_t timeouts{0};
    std::uint64_t fast_recoveries{0};
    /// Loss events as TCP perceives them (fast recovery entries + timeouts):
    /// the "congestion events" whose probability p' PFTK actually wants.
    [[nodiscard]] std::uint64_t congestion_events() const noexcept {
        return timeouts + fast_recoveries;
    }
    std::vector<double> rtt_samples;         ///< RTTs measured by TCP itself
};

/// TCP Reno sender with an infinite (bulk) data source.
class tcp_sender {
public:
    tcp_sender(sim::scheduler& sched, net::conduit& conduit, net::flow_id flow,
               tcp_config cfg = {});

    tcp_sender(const tcp_sender&) = delete;
    tcp_sender& operator=(const tcp_sender&) = delete;
    /// Cancels pending timers and unregisters from the conduit: a sender is
    /// safe to destroy while the simulation continues.
    ~tcp_sender();

    /// Open the connection and start transmitting immediately.
    void start();
    /// Stop offering new data. In-flight data may still be retransmitted
    /// until `quiesce()`.
    void stop();
    /// Hard-stop: cancel timers, send nothing further.
    void quiesce();

    [[nodiscard]] bool active() const noexcept { return active_; }
    [[nodiscard]] const sender_stats& stats() const noexcept { return stats_; }

    /// Payload bytes delivered (cumulatively ACKed) so far.
    [[nodiscard]] std::uint64_t acked_bytes() const noexcept {
        return snd_una_ * core::k_mss_bytes;
    }
    [[nodiscard]] core::seconds smoothed_rtt() const noexcept {
        return core::seconds{srtt_};
    }
    [[nodiscard]] const tcp_config& config() const noexcept { return cfg_; }

    /// Deliver an ACK packet (wired by tcp_connection).
    void on_ack(const net::packet& p);

private:
    struct seg_meta {
        double send_time{0.0};
        bool retransmitted{false};
        bool sacked{false};            ///< selectively acknowledged (SACK)
        std::uint32_t retx_epoch{0};   ///< recovery episode of the last retransmit
    };

    [[nodiscard]] std::uint64_t flight() const noexcept { return next_seq_ - snd_una_; }
    [[nodiscard]] std::uint64_t usable_window() const noexcept;
    void try_send();
    void transmit(std::uint64_t seq);
    void enter_fast_recovery();
    void apply_sack_block(std::uint64_t begin, std::uint64_t end);
    void sack_send_during_recovery();
    [[nodiscard]] std::uint64_t sacked_count() const noexcept;
    void on_new_ack(std::uint64_t ack, std::uint64_t newly);
    void update_rtt(double sample);
    void arm_rto(double timeout_s);
    void disarm_rto();
    void schedule_rto_event(double when);
    void on_rto_event();
    [[nodiscard]] seg_meta& meta(std::uint64_t seq);
    /// Number of live metadata entries (segments in [snd_una_, next_seq_)).
    [[nodiscard]] std::size_t metas_live() const noexcept {
        return metas_.size() - metas_head_;
    }
    void metas_pop_front(std::size_t n);
    void metas_clear() noexcept {
        metas_.clear();
        metas_head_ = 0;
    }

    sim::scheduler* sched_;
    net::conduit* conduit_;
    net::flow_id flow_;
    tcp_config cfg_;

    bool active_{false};
    bool quiesced_{false};
    std::uint64_t snd_una_{0};      ///< lowest unacknowledged segment
    std::uint64_t next_seq_{0};     ///< next segment to transmit
    std::uint64_t max_seq_sent_{0}; ///< high-water mark: transmissions below it are retransmits
    /// Metadata for [snd_una_, next_seq_), stored flat: entry for seq lives
    /// at metas_[metas_head_ + (seq - snd_una_)]. ACK progress advances the
    /// head index; the vector is compacted (or cleared) amortized-O(1), so
    /// the per-ACK path never shifts elements or frees memory.
    std::vector<seg_meta> metas_;
    std::size_t metas_head_{0};

    double cwnd_{1.0};           ///< congestion window, segments (fractional in CA)
    double ssthresh_;
    std::uint64_t rwnd_segments_;
    std::uint32_t dupacks_{0};
    bool in_recovery_{false};
    std::uint64_t recover_point_{0};
    /// Fast-recovery window inflation (dupacks since the last partial ACK);
    /// kept separate from cwnd_ so recovery never permanently inflates it.
    std::uint64_t inflation_{0};
    std::uint32_t recovery_epoch_{0};   ///< id of the current recovery episode
    std::uint64_t highest_sacked_{0};

    double srtt_{0.0};
    double rttvar_{0.0};
    bool have_rtt_{false};
    double rto_;
    std::uint32_t backoff_{0};
    // Lazy RTO timer: re-arming per ACK only moves `rto_deadline_` forward;
    // the single scheduled event checks the deadline when it fires and
    // re-schedules itself for the remainder. This replaces a cancel +
    // schedule pair per ACK with plain stores (the common case).
    bool rto_armed_{false};
    bool rto_event_live_{false};  ///< an event is pending in the scheduler
    double rto_deadline_{0.0};
    double rto_event_when_{0.0};  ///< firing time of the pending event
    sim::event_handle rto_event_{};

    sender_stats stats_{};
};

/// TCP receiver: cumulative + delayed ACKs, out-of-order buffer.
class tcp_receiver {
public:
    tcp_receiver(sim::scheduler& sched, net::conduit& conduit, net::flow_id flow,
                 tcp_config cfg = {});

    tcp_receiver(const tcp_receiver&) = delete;
    tcp_receiver& operator=(const tcp_receiver&) = delete;
    /// Cancels the delayed-ACK timer and unregisters from the conduit.
    ~tcp_receiver();

    /// Deliver a data packet (wired by tcp_connection).
    void on_data(const net::packet& p);

    [[nodiscard]] std::uint64_t next_expected() const noexcept { return rcv_next_; }
    [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_sent_; }

private:
    void send_ack_now();
    void maybe_delay_ack();

    std::uint64_t last_arrival_{0};  ///< seq of the most recent data segment

    sim::scheduler* sched_;
    net::conduit* conduit_;
    net::flow_id flow_;
    tcp_config cfg_;

    std::uint64_t rcv_next_{0};
    /// Sorted unique seqs above rcv_next_ (a flat replacement for the old
    /// std::set: holes are few and short-lived, so sorted-vector insertion
    /// and run-scans beat node allocation on the per-segment path).
    std::vector<std::uint64_t> out_of_order_;
    std::uint32_t unacked_segments_{0};
    std::uint64_t delack_generation_{0};
    bool delack_armed_{false};
    sim::event_handle delack_event_{};
    std::uint64_t acks_sent_{0};
};

/// Wires a sender and a receiver across a conduit.
class tcp_connection {
public:
    tcp_connection(sim::scheduler& sched, net::conduit& conduit, net::flow_id flow,
                   tcp_config cfg = {});

    void start() { sender_.start(); }
    void stop() { sender_.stop(); }
    void quiesce() { sender_.quiesce(); }

    [[nodiscard]] tcp_sender& sender() noexcept { return sender_; }
    [[nodiscard]] const tcp_sender& sender() const noexcept { return sender_; }
    [[nodiscard]] tcp_receiver& receiver() noexcept { return receiver_; }

private:
    tcp_sender sender_;
    tcp_receiver receiver_;
};

}  // namespace tcppred::tcp
