#include "net/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "net/cross_traffic.hpp"
#include "net/path.hpp"

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

// --- open-loop sources against the arrival-event chains they replace ----
//
// The sources before they became arrival streams, kept as the reference the
// way evented_link keeps the old link: each packet is an arrival event that
// enqueues it with no delivery and schedules the next, a Pareto burst starts
// with an event and ends at the emission event that finds it over. Their
// draws and sums are the deleted chains', statement for statement; stop()
// only clears the flag that the pending event checks.
class chained_poisson {
public:
    chained_poisson(sim::scheduler& sched, link& l, std::uint64_t seed, double rate_bps)
        : sched_(&sched), link_(&l), rng_(seed), rate_bps_(rate_bps) {}

    void start() {
        if (running_) return;
        running_ = true;
        schedule_next();
    }
    void stop() { running_ = false; }
    void set_rate(double rate_bps) { rate_bps_ = rate_bps; }

private:
    void schedule_next() {
        if (!running_ || rate_bps_ <= 0.0) return;
        const double mean_interarrival = mix_.mean_bytes() * 8.0 / rate_bps_;
        sched_->schedule_in(rng_.exponential(mean_interarrival), [this] {
            if (!running_) return;
            packet p;
            p.kind = packet_kind::cross;
            p.size_bytes = mix_.draw(rng_);
            link_->enqueue(p, false);
            schedule_next();
        });
    }

    sim::scheduler* sched_;
    link* link_;
    sim::rng rng_;
    double rate_bps_;
    packet_size_mix mix_{};
    bool running_{false};
};

class chained_pareto {
public:
    chained_pareto(sim::scheduler& sched, link& l, std::uint64_t seed, pareto_onoff_config cfg)
        : sched_(&sched), link_(&l), rng_(seed), cfg_(cfg) {}

    void start() {
        if (running_) return;
        running_ = true;
        sched_->schedule_in(rng_.exponential(cfg_.mean_off_s), [this] { begin_on_period(); });
    }
    void stop() { running_ = false; }
    void set_mean_rate(double rate_bps) {
        cfg_.peak_rate_bps = rate_bps * (cfg_.mean_on_s + cfg_.mean_off_s) / cfg_.mean_on_s;
    }
    /// Between a burst's first packet and the emission event that ends it.
    [[nodiscard]] bool in_burst() const { return running_ && in_burst_; }

private:
    void begin_on_period() {
        if (!running_) return;
        const double xmin = cfg_.mean_on_s * (cfg_.pareto_shape - 1.0) / cfg_.pareto_shape;
        const double on = rng_.pareto(cfg_.pareto_shape, xmin);
        in_burst_ = true;
        emit(sched_->now() + on);
    }

    void emit(double until) {
        if (!running_) return;
        if (sched_->now() >= until) {
            in_burst_ = false;
            sched_->schedule_in(rng_.exponential(cfg_.mean_off_s),
                                [this] { begin_on_period(); });
            return;
        }
        packet p;
        p.kind = packet_kind::cross;
        p.size_bytes = cfg_.packet_bytes;
        link_->enqueue(p, false);
        const double spacing = cfg_.packet_bytes * 8.0 / cfg_.peak_rate_bps;
        sched_->schedule_in(spacing, [this, until] { emit(until); });
    }

    sim::scheduler* sched_;
    link* link_;
    sim::rng rng_;
    pareto_onoff_config cfg_;
    bool running_{false};
    bool in_burst_{false};
};

/// One Poisson and up to three Pareto on/off sources on one link, with
/// foreground arrivals and reads, rate changes, fluid, late starts and stops,
/// each an event with an explicit cause scheduled before the run.
struct source_scenario {
    enum class kind { arrive, read, set_rate, set_mean_rate, start, stop, fluid, outage };
    struct op {
        kind what;
        double when;
        double cause;
        std::size_t source;  ///< 0: the Poisson source, i: Pareto source i - 1
        double value;        ///< bytes, a rate or a fluid delta
        bool deliver;
    };
    double capacity_bps{0.0};
    double prop_s{0.0};
    std::size_t buffer{0};
    double loss{0.0};
    double loss_burst_s{0.0};
    double outage_from{0.0};
    double outage_until{0.0};
    double horizon{30.0};
    double poisson_bps{0.0};
    std::vector<double> pareto_bps;
    std::vector<bool> late_start;  ///< per source: started by an op, not at 0
    std::vector<op> ops;
};

source_scenario make_source_scenario(std::uint64_t seed) {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(gen() % n); };
    source_scenario sc;
    sc.capacity_bps = 1e6 * static_cast<double>(1 + pick(4));
    sc.prop_s = 0.05 * u01(gen);
    sc.buffer = 2 + pick(40);
    switch (pick(3)) {
        case 0: break;
        case 1: sc.loss = 0.03; break;
        default:
            sc.loss = 0.05;
            sc.loss_burst_s = 0.2;
            break;
    }
    if (pick(3) == 0) {
        sc.outage_from = sc.horizon * u01(gen);
        sc.outage_until = sc.outage_from + 2.0 * u01(gen);
    }
    const bool fluid = pick(4) == 0;
    sc.poisson_bps = sc.capacity_bps * (pick(8) == 0 ? 0.0 : 0.2 + 0.6 * u01(gen));
    const std::size_t n_pareto = pick(4);
    for (std::size_t i = 0; i < n_pareto; ++i) {
        sc.pareto_bps.push_back(sc.capacity_bps * (0.05 + 0.25 * u01(gen)));
    }
    const std::size_t n_sources = 1 + n_pareto;
    for (std::size_t i = 0; i < n_sources; ++i) sc.late_start.push_back(pick(5) == 0);
    const auto instant = [&] { return sc.horizon * u01(gen); };
    const auto cause_of = [&](double when) {
        return pick(4) == 0 ? when : std::max(0.0, when - 2.0 * u01(gen));
    };
    // A late source starts once; a stop comes after its start, since a
    // restarted chain keeps its stopped predecessor alive.
    std::vector<double> started_at(n_sources, 0.0);
    for (std::size_t i = 0; i < n_sources; ++i) {
        if (sc.late_start[i]) {
            started_at[i] = instant();
            sc.ops.push_back({source_scenario::kind::start, started_at[i],
                              cause_of(started_at[i]), i, 0.0, false});
        }
    }
    for (int i = 0; i < 160; ++i) {
        const double when = instant();
        const double cause = cause_of(when);
        const std::size_t k = pick(20);
        const std::size_t src = pick(n_sources);
        source_scenario::op o{source_scenario::kind::read, when, cause, src, 0.0, false};
        if (k == 0) {
            // A new outage window, from up to a second before the call:
            // arrivals due before it keep the old window.
            o.what = source_scenario::kind::outage;
            o.value = when - u01(gen);
        } else if (k < 11) {
            o.what = source_scenario::kind::arrive;
            o.value = static_cast<double>(40 + pick(1461));
            o.deliver = pick(4) != 0;
        } else if (k < 14) {
            o.what = source_scenario::kind::read;
        } else if (k < 17) {
            // A Poisson rate now and then drops to 0, which ends its chain.
            o.what = src == 0 ? source_scenario::kind::set_rate
                              : source_scenario::kind::set_mean_rate;
            const double share = pick(10) == 0 ? 0.0 : 0.05 + 0.6 * u01(gen);
            o.value = (src == 0 || share > 0.0 ? share : 0.1) * sc.capacity_bps;
        } else if (k < 18) {
            if (when > started_at[src]) o.what = source_scenario::kind::stop;
        } else if (fluid) {
            o.what = source_scenario::kind::fluid;
            o.value = (u01(gen) - 0.4) * sc.capacity_bps;
        }
        sc.ops.push_back(o);
    }
    return sc;
}

/// What the reference met: rate changes and stops inside a Pareto burst.
struct source_census {
    int mean_rate_mid_burst{0};
    int stop_mid_burst{0};
    int stops{0};
    int rate_to_zero{0};
};

/// The sources of `sc` as streams (Chained = false) or as the reference
/// chains; logs every foreground outcome and read, and every delivery with
/// its instant, in dispatch order.
template <bool Chained>
std::vector<std::string> drive_sources(const source_scenario& sc, source_census* census) {
    sim::scheduler s;
    const std::vector<hop_config> hops{hop_config{core::bits_per_second{sc.capacity_bps},
                                                  core::seconds{sc.prop_s}, sc.buffer}};
    duplex_path path(s, hops, hops);
    link& l = path.forward_link(0);
    std::vector<std::string> log;
    l.set_sink([&](packet p) {
        log.push_back("deliver " + std::to_string(p.seq) + " at " + hex(s.now()) + describe(l));
    });
    if (sc.loss > 0.0) l.set_random_loss(sc.loss, 7, sc.loss_burst_s);
    if (sc.outage_until > sc.outage_from) l.set_outage(sc.outage_from, sc.outage_until);
    l.set_fluid_mean_packet_bytes(700.0);

    using poisson_t = std::conditional_t<Chained, chained_poisson, poisson_source>;
    using pareto_t = std::conditional_t<Chained, chained_pareto, pareto_onoff_source>;
    std::unique_ptr<poisson_t> poisson;
    std::vector<std::unique_ptr<pareto_t>> pareto;
    if constexpr (Chained) {
        poisson = std::make_unique<poisson_t>(s, l, 11, sc.poisson_bps);
    } else {
        poisson = std::make_unique<poisson_t>(s, path, 0, 10, 11, sc.poisson_bps);
    }
    for (std::size_t i = 0; i < sc.pareto_bps.size(); ++i) {
        const std::uint64_t seed = 20 + i;
        if constexpr (Chained) {
            pareto.push_back(std::make_unique<pareto_t>(s, l, seed, pareto_onoff_config{}));
        } else {
            pareto.push_back(std::make_unique<pareto_t>(s, path, 0, 11 + i, seed,
                                                        pareto_onoff_config{}));
        }
        pareto.back()->set_mean_rate(sc.pareto_bps[i]);
    }
    const auto start = [&](std::size_t src) {
        if (src == 0) {
            poisson->start();
        } else {
            pareto[src - 1]->start();
        }
    };
    for (std::size_t i = 0; i < sc.late_start.size(); ++i) {
        if (!sc.late_start[i]) start(i);
    }

    std::uint64_t seq = 0;
    for (const source_scenario::op& o : sc.ops) {
        s.schedule_at(o.when, o.cause, [&, o, id = seq++] {
            const std::string at = " at " + hex(s.now()) + " cause " + hex(s.cause());
            std::string what;
            switch (o.what) {
                case source_scenario::kind::arrive: {
                    packet p = make_packet(static_cast<std::uint32_t>(o.value), id);
                    what = (l.enqueue(p, o.deliver) ? "admit " : "drop ") + std::to_string(id);
                    break;
                }
                case source_scenario::kind::read:
                    what = "read";
                    break;
                case source_scenario::kind::set_rate:
                    if (census != nullptr && o.value == 0.0) ++census->rate_to_zero;
                    poisson->set_rate(o.value);
                    what = "set_rate";
                    break;
                case source_scenario::kind::set_mean_rate:
                    if constexpr (Chained) {
                        if (census != nullptr && pareto[o.source - 1]->in_burst()) {
                            ++census->mean_rate_mid_burst;
                        }
                    }
                    pareto[o.source - 1]->set_mean_rate(o.value);
                    what = "set_mean_rate " + std::to_string(o.source);
                    break;
                case source_scenario::kind::start:
                    start(o.source);
                    what = "start " + std::to_string(o.source);
                    break;
                case source_scenario::kind::stop:
                    if (o.source == 0) {
                        poisson->stop();
                    } else {
                        if constexpr (Chained) {
                            if (census != nullptr && pareto[o.source - 1]->in_burst()) {
                                ++census->stop_mid_burst;
                            }
                        }
                        pareto[o.source - 1]->stop();
                    }
                    if (census != nullptr) ++census->stops;
                    what = "stop " + std::to_string(o.source);
                    break;
                case source_scenario::kind::fluid:
                    l.add_fluid_rate(o.value);
                    what = "fluid";
                    break;
                case source_scenario::kind::outage:
                    l.set_outage(o.value, o.value + 1.5);
                    what = "outage";
                    break;
            }
            log.push_back(what + at + describe(l));
        });
    }
    s.run_until(sc.horizon);
    log.push_back("end" + describe(l));
    poisson->stop();
    for (auto& src : pareto) src->stop();
    s.run_until(sc.horizon + 100.0);  // drain: every admitted packet departs
    log.push_back("drained" + describe(l));
    return log;
}

TEST(stream_equivalence, sources_match_their_arrival_event_chains) {
    source_census census;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const source_scenario sc = make_source_scenario(seed);
        const auto want = drive_sources<true>(sc, &census);
        const auto got = drive_sources<false>(sc, nullptr);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", entry " << i;
        }
    }
    EXPECT_GT(census.mean_rate_mid_burst, 0);
    EXPECT_GT(census.stop_mid_burst, 0);
    EXPECT_GT(census.stops, census.stop_mid_burst);
    EXPECT_GT(census.rate_to_zero, 0);
}

/// A stream that replays a script of (instant, cause, bytes) arrivals.
class scripted_stream final : public arrival_stream {
public:
    struct arrival {
        double at;
        double cause;
        std::uint32_t bytes;
    };

    explicit scripted_stream(std::vector<arrival> script) : script_(std::move(script)) {
        load();
    }

    std::uint32_t take() override {
        const std::uint32_t bytes = script_[next_].bytes;
        ++next_;
        load();
        return bytes;
    }

private:
    void load() {
        if (next_ == script_.size()) {
            next_at_ = std::numeric_limits<double>::infinity();
            return;
        }
        next_at_ = script_[next_].at;
        next_cause_ = script_[next_].cause;
    }

    std::vector<scripted_stream::arrival> script_;
    std::size_t next_{0};
};

/// Its reference: arrival k is an event at (at, cause) that enqueues with no
/// delivery and schedules arrival k + 1, as a source's chain did.
void chain_script(sim::scheduler& s, link& l,
                  const std::vector<scripted_stream::arrival>& script, std::size_t k) {
    if (k == script.size()) return;
    const scripted_stream::arrival a = script[k];
    s.schedule_at(a.at, a.cause, [&s, &l, &script, k, a] {
        packet p = make_packet(a.bytes);
        p.flow = 2;
        l.enqueue(p, false);
        chain_script(s, l, script, k + 1);
    });
}

/// Two scripts on the quarter-second grid of `make_scenario`: each cause
/// lies between the previous arrival and its own instant (an arrival drawn
/// at its predecessor), and the two never share an (instant, cause).
std::vector<std::vector<scripted_stream::arrival>> make_scripts(std::uint64_t seed,
                                                                double horizon) {
    std::mt19937_64 gen(seed ^ 0x5eedULL);
    const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(gen() % n); };
    std::vector<std::vector<scripted_stream::arrival>> scripts(2);
    for (auto& script : scripts) {
        double t = 0.0;
        for (;;) {
            const double at = t + 0.25 * static_cast<double>(pick(9));
            if (at >= horizon) break;
            const double cause = t + 0.25 * static_cast<double>(pick(
                                             static_cast<std::size_t>((at - t) * 4) + 1));
            const bool taken = std::any_of(
                scripts[0].begin(), scripts[0].end(),
                [&](const scripted_stream::arrival& a) { return a.at == at && a.cause == cause; });
            if (&script == &scripts[1] && taken) continue;
            script.push_back({at, cause, 256u * static_cast<std::uint32_t>(1 + pick(4))});
            t = at;
        }
    }
    return scripts;
}

/// Where the scripted arrivals landed: on a foreground arrival or on a
/// departure, by whether their cause precedes, equals or follows that
/// arrival's cause or the departing packet's start.
struct landing_census {
    int on_arrival[3]{};
    int on_departure[3]{};
};

template <bool Chained>
std::vector<std::string> drive_scripts(const scenario& sc,
                                       const std::vector<std::vector<scripted_stream::arrival>>&
                                           scripts) {
    sim::scheduler s;
    link l(s, sc.capacity_bps, sc.prop_s, sc.buffer);
    std::vector<std::string> log;
    // A delivery reads nothing of the link: the reference chain and a
    // delivery may share an (instant, cause), which only ids order.
    l.set_sink([&](packet p) {
        log.push_back("deliver " + std::to_string(p.seq) + " at " + hex(s.now()));
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
                    const bool admitted = l.enqueue(make_packet(o.bytes, id), o.deliver);
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
    // The streams start after the foreground was scheduled, as a source
    // started then would: at an equal (instant, cause) the foreground fires
    // first.
    std::vector<std::unique_ptr<scripted_stream>> streams;
    for (const auto& script : scripts) {
        if constexpr (Chained) {
            chain_script(s, l, script, 0);
        } else {
            streams.push_back(std::make_unique<scripted_stream>(script));
            l.attach(*streams.back());
        }
    }
    s.run_until(sc.horizon);
    log.push_back("end" + describe(l));
    for (auto& stream : streams) l.detach(*stream);
    s.run_until(sc.horizon + 100.0);
    log.push_back("drained" + describe(l));
    return log;
}

TEST(stream_equivalence, scripted_streams_on_the_quarter_second_grid) {
    landing_census census;
    const auto side = [](double a, double b) { return a < b ? 0 : a == b ? 1 : 2; };
    int grids = 0;
    for (std::uint64_t seed = 1; seed <= 180; ++seed) {
        if (seed % 3 == 0) continue;  // continuous instants: make_scenario's other kind
        ++grids;
        const scenario sc = make_scenario(seed);
        const auto scripts = make_scripts(seed, sc.horizon);
        const auto want = drive_scripts<true>(sc, scripts);
        const auto got = drive_scripts<false>(sc, scripts);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", entry " << i;
        }
        // Departures of delivered foreground packets, from their delivery
        // instants (everything is on the grid, so the sums are exact; fluid
        // served ahead would stretch a packet's service).
        std::vector<std::pair<double, double>> departures;  // (departs, starts)
        for (const std::string& e : want) {
            if (sc.fluid) break;
            unsigned long long id = 0;
            char when[64];
            if (std::sscanf(e.c_str(), "deliver %llu at %63s", &id, when) != 2) continue;
            const double departs = std::strtod(when, nullptr) - sc.prop_s;
            const double tx = sc.ops[id].bytes * 8.0 / sc.capacity_bps;
            departures.emplace_back(departs, departs - tx);
        }
        for (const auto& script : scripts) {
            for (const scripted_stream::arrival& a : script) {
                for (const scenario::op& o : sc.ops) {
                    if (o.what == scenario::kind::arrive && o.when == a.at) {
                        ++census.on_arrival[side(a.cause, o.cause)];
                    }
                }
                for (const auto& [departs, starts] : departures) {
                    if (departs == a.at) ++census.on_departure[side(a.cause, starts)];
                }
            }
        }
    }
    EXPECT_GE(grids, 120);
    for (int i = 0; i < 3; ++i) {
        EXPECT_GT(census.on_arrival[i], 0) << i;
        EXPECT_GT(census.on_departure[i], 0) << i;
    }
}

}  // namespace
}  // namespace tcppred::net
