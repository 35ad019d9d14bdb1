#include "net/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

namespace tcppred::net {
namespace {

packet make_packet(std::uint32_t size, std::uint64_t seq = 0) {
    packet p;
    p.flow = 1;
    p.kind = packet_kind::tcp_data;
    p.size_bytes = size;
    p.seq = seq;
    return p;
}

TEST(link, delivers_after_tx_plus_propagation) {
    sim::scheduler s;
    link l(s, 8e6, 0.010, 10);  // 8 Mbps: 1000 bytes = 1 ms tx
    double delivered_at = -1.0;
    l.set_sink([&](packet) { delivered_at = s.now(); });
    l.enqueue(make_packet(1000));
    s.run_all();
    EXPECT_NEAR(delivered_at, 0.001 + 0.010, 1e-12);
}

TEST(link, serializes_back_to_back_packets) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 10);
    std::vector<double> arrivals;
    l.set_sink([&](packet) { arrivals.push_back(s.now()); });
    for (int i = 0; i < 3; ++i) l.enqueue(make_packet(1000, static_cast<std::uint64_t>(i)));
    s.run_all();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_NEAR(arrivals[0], 0.001, 1e-12);
    EXPECT_NEAR(arrivals[1], 0.002, 1e-12);
    EXPECT_NEAR(arrivals[2], 0.003, 1e-12);
}

TEST(link, preserves_fifo_order) {
    sim::scheduler s;
    link l(s, 1e6, 0.005, 100);
    std::vector<std::uint64_t> seqs;
    l.set_sink([&](packet p) { seqs.push_back(p.seq); });
    for (std::uint64_t i = 0; i < 20; ++i) l.enqueue(make_packet(500, i));
    s.run_all();
    ASSERT_EQ(seqs.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(link, drops_when_buffer_full) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 2);  // 1 transmitting + 2 queued
    int delivered = 0;
    l.set_sink([&](packet) { ++delivered; });
    int accepted = 0;
    for (int i = 0; i < 10; ++i) accepted += l.enqueue(make_packet(1000)) ? 1 : 0;
    s.run_all();
    EXPECT_EQ(accepted, 3);
    EXPECT_EQ(delivered, 3);
    EXPECT_EQ(l.stats().dropped, 7u);
    EXPECT_EQ(l.stats().delivered, 3u);
}

TEST(link, buffer_frees_as_packets_depart) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 1);
    int delivered = 0;
    l.set_sink([&](packet) { ++delivered; });
    l.enqueue(make_packet(1000));
    l.enqueue(make_packet(1000));
    EXPECT_FALSE(l.enqueue(make_packet(1000)));  // full now
    s.run_until(0.0015);                          // first tx done at 1 ms
    EXPECT_TRUE(l.enqueue(make_packet(1000)));    // slot freed
    s.run_all();
    EXPECT_EQ(delivered, 3);
}

TEST(link, propagation_does_not_serialize) {
    // Two packets sent back-to-back on a long-propagation link must arrive
    // tx_time apart, not 2*prop apart.
    sim::scheduler s;
    link l(s, 8e6, 0.100, 10);
    std::vector<double> arrivals;
    l.set_sink([&](packet) { arrivals.push_back(s.now()); });
    l.enqueue(make_packet(1000));
    l.enqueue(make_packet(1000));
    s.run_all();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_NEAR(arrivals[1] - arrivals[0], 0.001, 1e-12);
}

TEST(link, utilization_tracks_busy_fraction) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 100);
    l.set_sink([](packet) {});
    // 10 packets x 1 ms tx = 10 ms busy.
    for (int i = 0; i < 10; ++i) l.enqueue(make_packet(1000));
    s.run_all();
    s.run_until(0.1);
    EXPECT_NEAR(l.utilization(), 0.1, 1e-9);
}

TEST(link, tx_time_matches_capacity) {
    sim::scheduler s;
    link l(s, 1e6, 0.0, 1);
    EXPECT_DOUBLE_EQ(l.tx_time(1250), 0.01);  // 10 kbit at 1 Mbps
}

TEST(link, bernoulli_random_loss_converges_to_rate) {
    sim::scheduler s;
    link l(s, 100e6, 0.0, 4096);
    l.set_random_loss(0.1, 42);
    int delivered = 0;
    l.set_sink([&](packet) { ++delivered; });
    const int offered = 20000;
    // Spread arrivals over time so the queue never overflows.
    for (int i = 0; i < offered; ++i) {
        s.schedule_at(i * 1e-4, [&] { l.enqueue(make_packet(500)); });
    }
    s.run_all();
    const double loss = 1.0 - static_cast<double>(delivered) / offered;
    EXPECT_NEAR(loss, 0.1, 0.01);
}

TEST(link, gilbert_loss_converges_and_is_bursty) {
    sim::scheduler s;
    link l(s, 100e6, 0.0, 4096);
    l.set_random_loss(0.05, 42, /*burst=*/0.050);
    std::vector<int> outcomes;
    l.set_sink([&](packet) { outcomes.push_back(1); });
    const int offered = 60000;
    for (int i = 0; i < offered; ++i) {
        s.schedule_at(i * 1e-3, [&, i] {
            if (!l.enqueue(make_packet(500))) outcomes.push_back(0);
        });
    }
    s.run_all();
    int lost = 0, runs = 0;
    bool in_run = false;
    for (const int o : outcomes) {
        if (o == 0) {
            ++lost;
            if (!in_run) {
                ++runs;
                in_run = true;
            }
        } else {
            in_run = false;
        }
    }
    const double loss = static_cast<double>(lost) / offered;
    EXPECT_NEAR(loss, 0.05, 0.015);
    // Bursty: mean run length well above 1 (episodes of ~50 ms at 1 ms
    // arrival spacing should cover dozens of packets).
    EXPECT_GT(static_cast<double>(lost) / runs, 5.0);
}

TEST(link, counts_bytes_delivered) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 10);
    l.set_sink([](packet) {});
    l.enqueue(make_packet(700));
    l.enqueue(make_packet(300));
    s.run_all();
    EXPECT_EQ(l.stats().bytes_delivered, 1000u);
}

// --- equivalence with the evented link ----------------------------------
//
// The link before departures were fixed at admission, kept as the reference
// the way scheduler_stress_test keeps its O(n) queue: one event at each
// transmission end (it integrates the fluid, counts the departure, schedules
// the delivery and starts the next packet) and one per delivery. Its
// arithmetic is the old link's, statement for statement; the accessors at
// the end only classify same-instant ties for the coverage check.
class evented_link {
public:
    evented_link(sim::scheduler& sched, double capacity_bps, double prop_delay_s,
                 std::size_t buffer_packets)
        : sched_(&sched),
          capacity_bps_(capacity_bps),
          prop_delay_(prop_delay_s),
          buffer_packets_(buffer_packets) {}

    void set_sink(std::function<void(packet)> sink) { sink_ = std::move(sink); }

    bool enqueue(packet p) {
        const double now = sched_->now();
        if (now >= outage_from_ && now < outage_until_) {
            ++stats_.dropped;
            return false;
        }
        if (random_loss_hit()) {
            ++stats_.dropped;
            return false;
        }
        if (fluid_active_) advance_fluid();
        if (!transmitting_) {
            if (fluid_active_ &&
                fluid_total_bits_ / fluid_pkt_bits_ >= static_cast<double>(buffer_packets_)) {
                ++stats_.dropped;
                return false;
            }
            ++stats_.enqueued;
            const double ahead = fluid_tail_bits_;
            fluid_tail_bits_ = 0.0;
            start_transmission(p, ahead);
            return true;
        }
        double occupancy = static_cast<double>(queue_.size());
        if (fluid_active_) occupancy += fluid_total_bits_ / fluid_pkt_bits_;
        if (occupancy >= static_cast<double>(buffer_packets_)) {
            ++stats_.dropped;
            return false;
        }
        ++stats_.enqueued;
        queue_.push_back(queued{p, fluid_tail_bits_});
        fluid_tail_bits_ = 0.0;
        return true;
    }

    void set_random_loss(double probability, std::uint64_t seed, double burst_duration_s) {
        random_loss_ = probability;
        loss_burst_s_ = burst_duration_s;
        loss_rng_.emplace(seed);
        in_bad_state_ = false;
        if (burst_duration_s > 0.0 && probability > 0.0 && probability < 1.0) {
            const double mean_good = burst_duration_s * (1.0 - probability) / probability;
            state_until_ = sched_->now() + loss_rng_->exponential(mean_good);
        } else {
            state_until_ = 0.0;
        }
    }

    void set_outage(double from_s, double until_s) {
        outage_from_ = from_s;
        outage_until_ = until_s;
    }

    void add_fluid_rate(double delta_bps) {
        if (!fluid_active_) {
            fluid_active_ = true;
            fluid_updated_ = sched_->now();
        }
        advance_fluid();
        fluid_rate_ += delta_bps;
        if (fluid_rate_ < 0.0) fluid_rate_ = 0.0;
    }

    void set_fluid_mean_packet_bytes(double bytes) { fluid_pkt_bits_ = bytes * 8.0; }

    [[nodiscard]] std::size_t queue_length() const {
        return queue_.size() + (transmitting_ ? 1u : 0u);
    }
    [[nodiscard]] const link_stats& stats() const { return stats_; }

    // Tie classification: the packet in transmission and the last departure.
    [[nodiscard]] bool transmitting() const { return transmitting_; }
    [[nodiscard]] double head_starts() const { return head_starts_; }
    [[nodiscard]] double head_departs() const { return head_departs_; }
    [[nodiscard]] bool buffer_full() const { return queue_.size() >= buffer_packets_; }
    [[nodiscard]] double last_departure() const { return last_departure_; }
    [[nodiscard]] double last_departure_starts() const { return last_departure_starts_; }
    [[nodiscard]] bool full_before_last_departure() const { return full_before_last_; }

private:
    struct queued {
        packet p;
        double fluid_ahead_bits{0.0};
    };

    bool random_loss_hit() {
        if (random_loss_ <= 0.0 || !loss_rng_) return false;
        if (loss_burst_s_ <= 0.0) return loss_rng_->chance(random_loss_);
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

    void advance_fluid() {
        const double now = sched_->now();
        const double dt = now - fluid_updated_;
        fluid_updated_ = now;
        if (dt <= 0.0) return;
        if (transmitting_) {
            const double arrived = fluid_rate_ * dt;
            fluid_tail_bits_ += arrived;
            fluid_total_bits_ += arrived;
        } else {
            const double delta = (fluid_rate_ - capacity_bps_) * dt;
            fluid_tail_bits_ = std::max(0.0, fluid_tail_bits_ + delta);
            fluid_total_bits_ = fluid_tail_bits_;
        }
        const double cap_bits =
            (static_cast<double>(buffer_packets_) - static_cast<double>(queue_.size())) *
            fluid_pkt_bits_;
        if (fluid_total_bits_ > cap_bits) {
            const double excess = fluid_total_bits_ - std::max(cap_bits, 0.0);
            const double removed = std::min(excess, fluid_tail_bits_);
            fluid_tail_bits_ -= removed;
            fluid_total_bits_ -= removed;
        }
    }

    void start_transmission(packet p, double fluid_ahead_bits) {
        transmitting_ = true;
        double tx = static_cast<double>(p.size_bytes) * 8.0 / capacity_bps_;
        if (fluid_ahead_bits > 0.0) {
            tx += fluid_ahead_bits / capacity_bps_;
            fluid_total_bits_ = std::max(0.0, fluid_total_bits_ - fluid_ahead_bits);
        }
        stats_.busy_time += tx;
        head_starts_ = sched_->now();
        head_departs_ = head_starts_ + tx;
        sched_->schedule_in(tx, [this, p] {
            if (fluid_active_) advance_fluid();
            ++stats_.delivered;
            stats_.bytes_delivered += p.size_bytes;
            last_departure_ = sched_->now();
            last_departure_starts_ = head_starts_;
            full_before_last_ = buffer_full();
            sched_->schedule_in(prop_delay_, [this, p] {
                if (sink_) sink_(p);
            });
            on_tx_complete();
        });
    }

    void on_tx_complete() {
        if (queue_.empty()) {
            transmitting_ = false;
            return;
        }
        queued next = queue_.front();
        queue_.pop_front();
        start_transmission(next.p, next.fluid_ahead_bits);
    }

    sim::scheduler* sched_;
    double capacity_bps_;
    double prop_delay_;
    std::size_t buffer_packets_;
    std::function<void(packet)> sink_;
    std::deque<queued> queue_;
    bool transmitting_{false};
    bool fluid_active_{false};
    double fluid_rate_{0.0};
    double fluid_tail_bits_{0.0};
    double fluid_total_bits_{0.0};
    double fluid_updated_{0.0};
    double fluid_pkt_bits_{1500.0 * 8.0};
    double outage_from_{0.0};
    double outage_until_{0.0};
    double random_loss_{0.0};
    double loss_burst_s_{0.0};
    bool in_bad_state_{false};
    double state_until_{0.0};
    std::optional<sim::rng> loss_rng_;
    link_stats stats_{};
    double head_starts_{0.0};
    double head_departs_{-1.0};
    double last_departure_{-1.0};
    double last_departure_starts_{0.0};
    bool full_before_last_{false};
};

/// One seeded arrival schedule and the link it runs on. Every operation is
/// an event with an explicit cause, scheduled before the run.
struct scenario {
    enum class kind { arrive, read, fluid };
    struct op {
        kind what;
        double when;
        double cause;
        std::uint32_t bytes;  ///< arrive
        bool deliver;         ///< arrive: false = nobody receives it
        double fluid_delta;   ///< fluid
    };
    double capacity_bps{8192.0};
    double prop_s{0.0};
    std::size_t buffer{2};
    double loss{0.0};
    double loss_burst_s{0.0};
    double outage_from{0.0};
    double outage_until{0.0};
    bool fluid{false};
    double horizon{0.0};
    std::vector<op> ops;
};

/// Grid scenarios put every arrival, cause, start and departure on a
/// quarter-second grid (1,024 bytes serialize in exactly 1 s), so arrivals
/// land exactly on transmission ends with causes before, at and after the
/// departing packet's start; the rest draw continuous times. Both kinds mix
/// in outages, Bernoulli and Gilbert-Elliott loss and fluid rate changes.
scenario make_scenario(std::uint64_t seed) {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(gen() % n); };
    const bool grid = seed % 3 != 0;
    scenario sc;
    sc.buffer = pick(5);
    sc.prop_s = grid ? 0.25 * static_cast<double>(pick(5)) : u01(gen);
    sc.horizon = 120.0;
    switch (pick(3)) {
        case 0: break;
        case 1: sc.loss = 0.1; break;
        default:
            sc.loss = 0.15;
            sc.loss_burst_s = 2.0;
            break;
    }
    if (pick(3) == 0) {
        sc.outage_from = 20.0 + 0.25 * static_cast<double>(pick(80));
        sc.outage_until = sc.outage_from + 0.25 * static_cast<double>(1 + pick(40));
    }
    sc.fluid = pick(3) == 0;
    const auto instant = [&] {
        return grid ? 0.25 * static_cast<double>(pick(static_cast<std::size_t>(sc.horizon * 4)))
                    : u01(gen) * sc.horizon;
    };
    // About 150 arrivals offer 0.8-1.0 of the capacity: with 0-4 buffer
    // slots the buffer is often full.
    for (int i = 0; i < 220; ++i) {
        const double when = instant();
        // A cause at, or up to four seconds before, the event's time.
        const double back = grid ? 0.25 * static_cast<double>(pick(17)) : 4.0 * u01(gen);
        const double cause = std::max(0.0, when - (pick(4) == 0 ? 0.0 : back));
        const std::size_t k = pick(10);
        if (k < 7) {
            const std::uint32_t bytes = grid ? 256u * static_cast<std::uint32_t>(1 + pick(4))
                                             : 40u + static_cast<std::uint32_t>(pick(1461));
            sc.ops.push_back({scenario::kind::arrive, when, cause, bytes, pick(4) != 0, 0.0});
        } else if (k < 9 || !sc.fluid) {
            sc.ops.push_back({scenario::kind::read, when, cause, 0, false, 0.0});
        } else {
            const double delta = (u01(gen) - 0.4) * sc.capacity_bps;
            sc.ops.push_back({scenario::kind::fluid, when, cause, 0, false, delta});
        }
    }
    return sc;
}

std::string hex(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

template <typename Link>
std::string describe(Link& l) {
    const link_stats st = l.stats();
    return " enq=" + std::to_string(st.enqueued) + " dlv=" + std::to_string(st.delivered) +
           " drop=" + std::to_string(st.dropped) + " bytes=" +
           std::to_string(st.bytes_delivered) + " busy=" + hex(st.busy_time) +
           " qlen=" + std::to_string(l.queue_length());
}

/// Same-instant ties the reference met: an arrival exactly at a
/// transmission end, by whether the arrival's cause precedes, equals or
/// follows the departing packet's start, and whether the buffer was full
/// just before that departure.
struct tie_census {
    int before[2]{};
    int equal[2]{};
    int after[2]{};
};

/// Runs the scenario and logs every admit/drop outcome, every delivery and
/// every read of the link's state, in dispatch order.
template <typename Link>
std::vector<std::string> drive(const scenario& sc, tie_census* census) {
    sim::scheduler s;
    Link l(s, sc.capacity_bps, sc.prop_s, sc.buffer);
    std::vector<std::string> log;
    l.set_sink([&](packet p) {
        if (p.flow != 1) return;  // the reference delivers everything
        log.push_back("deliver " + std::to_string(p.seq) + " at " + hex(s.now()) + describe(l));
    });
    if (sc.loss > 0.0) l.set_random_loss(sc.loss, 7, sc.loss_burst_s);
    if (sc.outage_until > sc.outage_from) l.set_outage(sc.outage_from, sc.outage_until);
    if (sc.fluid) l.set_fluid_mean_packet_bytes(500.0);
    std::uint64_t seq = 0;
    for (const scenario::op& o : sc.ops) {
        s.schedule_at(o.when, o.cause, [&, o, id = seq++] {
            const std::string at = " at " + hex(s.now()) + " cause " + hex(s.cause());
            switch (o.what) {
                case scenario::kind::arrive: {
                    packet p = make_packet(o.bytes, id);
                    p.flow = o.deliver ? 1 : 2;
                    bool admitted = false;
                    if constexpr (std::is_same_v<Link, evented_link>) {
                        if (census != nullptr) {
                            const double now = s.now();
                            if (l.transmitting() && l.head_departs() == now) {
                                const int full = l.buffer_full() ? 1 : 0;
                                if (s.cause() < l.head_starts()) ++census->before[full];
                                if (s.cause() == l.head_starts()) ++census->equal[full];
                            } else if (l.last_departure() == now &&
                                       s.cause() > l.last_departure_starts()) {
                                ++census->after[l.full_before_last_departure() ? 1 : 0];
                            }
                        }
                        admitted = l.enqueue(p);
                    } else {
                        admitted = l.enqueue(p, o.deliver);
                    }
                    log.push_back((admitted ? "admit " : "drop ") + std::to_string(id) + at +
                                  describe(l));
                    break;
                }
                case scenario::kind::read:
                    log.push_back("read" + at + describe(l));
                    break;
                case scenario::kind::fluid:
                    l.add_fluid_rate(o.fluid_delta);
                    log.push_back("fluid" + at + describe(l));
                    break;
            }
        });
    }
    s.run_until(sc.horizon);
    log.push_back("end" + describe(l));
    s.run_until(sc.horizon + 100.0);  // drain: every admitted packet departs
    log.push_back("drained" + describe(l));
    return log;
}

TEST(link_equivalence, lazy_departures_match_the_evented_link) {
    tie_census census;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const scenario sc = make_scenario(seed);
        const auto want = drive<evented_link>(sc, &census);
        const auto got = drive<link>(sc, nullptr);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", entry " << i;
        }
    }
    // The schedules must actually reach the tie rule, with the buffer full
    // just before the departure (where the order decides admit vs drop).
    for (const int full : {0, 1}) {
        EXPECT_GT(census.before[full], 0) << full;
        EXPECT_GT(census.equal[full], 0) << full;
        EXPECT_GT(census.after[full], 0) << full;
    }
}

}  // namespace
}  // namespace tcppred::net
