#include "net/path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "net/cross_traffic.hpp"
#include "sim/rng.hpp"

namespace tcppred::net {
namespace {

std::vector<hop_config> two_hops() {
    return {hop_config{core::bits_per_second{100e6}, core::seconds{0.005}, 64},
            hop_config{core::bits_per_second{10e6}, core::seconds{0.010}, 32}};
}

std::vector<hop_config> one_hop() {
    return {hop_config{core::bits_per_second{100e6}, core::seconds{0.015}, 64}};
}

packet data_packet(flow_id flow, std::uint64_t seq = 0, std::uint32_t size = 1500) {
    packet p;
    p.flow = flow;
    p.kind = packet_kind::tcp_data;
    p.size_bytes = size;
    p.seq = seq;
    return p;
}

TEST(duplex_path, forward_delivery_reaches_registered_flow) {
    sim::scheduler s;
    const auto fwd = two_hops();
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);

    std::vector<std::uint64_t> got;
    path.on_deliver_forward(7, [&](packet p) { got.push_back(p.seq); });
    path.send_forward(data_packet(7, 42));
    s.run_all();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 42u);
}

TEST(duplex_path, unregistered_flow_is_dropped_silently) {
    sim::scheduler s;
    const auto fwd = two_hops();
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    path.send_forward(data_packet(99));
    s.run_all();  // must not crash
    EXPECT_EQ(path.forward_link(0).stats().delivered, 1u);
}

TEST(duplex_path, reverse_direction_is_independent) {
    sim::scheduler s;
    const auto fwd = two_hops();
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    int fwd_got = 0, rev_got = 0;
    path.on_deliver_forward(1, [&](packet) { ++fwd_got; });
    path.on_deliver_reverse(1, [&](packet) { ++rev_got; });
    path.send_reverse(data_packet(1));
    s.run_all();
    EXPECT_EQ(fwd_got, 0);
    EXPECT_EQ(rev_got, 1);
}

TEST(duplex_path, end_to_end_latency_sums_hops) {
    sim::scheduler s;
    const auto fwd = two_hops();  // prop 5 ms + 10 ms
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    double arrived = -1.0;
    path.on_deliver_forward(1, [&](packet) { arrived = s.now(); });
    path.send_forward(data_packet(1, 0, 1500));
    s.run_all();
    // tx: 1500B at 100 Mbps = 0.12 ms, at 10 Mbps = 1.2 ms; prop 15 ms.
    EXPECT_NEAR(arrived, 0.00012 + 0.0012 + 0.015, 1e-9);
}

TEST(duplex_path, bottleneck_is_minimum_capacity_link) {
    sim::scheduler s;
    const auto fwd = two_hops();
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    EXPECT_EQ(path.bottleneck_index(), 1u);
    EXPECT_DOUBLE_EQ(path.bottleneck().capacity_bps(), 10e6);
}

TEST(duplex_path, base_rtt_sums_both_directions) {
    sim::scheduler s;
    const auto fwd = two_hops();
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    EXPECT_NEAR(path.base_rtt().value(), 0.005 + 0.010 + 0.015, 1e-12);
}

TEST(duplex_path, cross_traffic_exits_after_its_link) {
    sim::scheduler s;
    const auto fwd = two_hops();
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);

    int exited = 0, delivered_end = 0;
    path.on_cross_exit(50, [&](packet) { ++exited; });
    path.on_deliver_forward(50, [&](packet) { ++delivered_end; });
    packet p = data_packet(50);
    p.kind = packet_kind::cross;
    path.inject_forward(1, p);
    s.run_all();
    EXPECT_EQ(exited, 1);
    EXPECT_EQ(delivered_end, 0);  // never traverses the rest of the path
}

TEST(duplex_path, sinkless_cross_traffic_fires_no_event) {
    sim::scheduler s;
    const auto fwd = two_hops();
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    constexpr int k_packets = 30;  // within the 32-packet buffer
    for (int i = 0; i < k_packets; ++i) {
        packet p = data_packet(50, static_cast<std::uint64_t>(i));
        p.kind = packet_kind::cross;
        path.inject_forward(1, p);
    }
    s.run_until(1.0);
    EXPECT_EQ(s.fired(), 0u);
    // The packets still occupied the link: 30 x 1.2 ms of serialization.
    const link_stats& st = path.forward_link(1).stats();
    EXPECT_EQ(st.enqueued, static_cast<std::uint64_t>(k_packets));
    EXPECT_EQ(st.delivered, static_cast<std::uint64_t>(k_packets));
    EXPECT_NEAR(st.busy_time, k_packets * 0.0012, 1e-9);
}

TEST(duplex_path, open_loop_sources_fire_no_event) {
    sim::scheduler s;
    const auto fwd = two_hops();  // link 1: 10 Mbps, 32 packets
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    poisson_source poisson(s, path, 1, 10, 3, 6e6);
    pareto_onoff_source bursts(s, path, 1, 11, 4, pareto_onoff_config{});
    bursts.set_mean_rate(2e6);
    poisson.start();
    bursts.start();
    s.run_until(20.0);
    // The link admitted them all the same: about 17k Poisson and 3.3k
    // on/off packets, some of them dropped in the bursts.
    const link_stats& st = path.forward_link(1).stats();
    EXPECT_GT(st.enqueued, 15000u);
    EXPECT_GT(st.busy_time, 0.7 * 20.0);
    EXPECT_EQ(s.fired(), 0u);
}

// stats() counts exactly the arrivals and departures due by now(). The
// reference redraws the Poisson source's arrivals in its order (the first
// interarrival at start; then each packet's size, then the next
// interarrival) and serves them FIFO; the link never fills, so nothing drops.
TEST(duplex_path, stream_stats_are_exact_at_now) {
    sim::scheduler s;
    const auto fwd = two_hops();  // link 0: 100 Mbps, 64 packets
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    constexpr double k_rate = 40e6;
    poisson_source poisson(s, path, 0, 10, 9, k_rate);
    poisson.start();

    struct arrival {
        double at;
        double starts;
        double departs;
        double tx;
        std::uint32_t bytes;
    };
    std::vector<arrival> want;
    sim::rng r(9);
    const packet_size_mix mix{};
    const double mean_interarrival = mix.mean_bytes() * 8.0 / k_rate;
    double next = 0.0 + r.exponential(mean_interarrival);
    double free_at = 0.0;
    while (next <= 2.0) {
        const std::uint32_t bytes = mix.draw(r);
        const double tx = path.forward_link(0).tx_time(bytes);
        const double starts = std::max(next, free_at);
        want.push_back({next, starts, starts + tx, tx, bytes});
        free_at = starts + tx;
        next = next + r.exponential(mean_interarrival);
    }
    ASSERT_GT(want.size(), 10000u);
    for (int step = 1; step <= 40; ++step) {
        const double now = 0.05 * step;
        s.run_until(now);
        link_stats expect;
        for (const arrival& a : want) {
            if (a.at <= now) ++expect.enqueued;
            if (a.starts <= now) expect.busy_time += a.tx;
            if (a.departs <= now) {
                ++expect.delivered;
                expect.bytes_delivered += a.bytes;
            }
        }
        const link_stats& st = path.forward_link(0).stats();
        EXPECT_EQ(st.enqueued, expect.enqueued) << now;
        EXPECT_EQ(st.dropped, 0u) << now;
        EXPECT_EQ(st.delivered, expect.delivered) << now;
        EXPECT_EQ(st.bytes_delivered, expect.bytes_delivered) << now;
        EXPECT_EQ(st.busy_time, expect.busy_time) << now;
    }
    EXPECT_EQ(s.fired(), 0u);
}

TEST(duplex_path, cross_exit_handler_receives_every_packet_after_propagation) {
    sim::scheduler s;
    const auto fwd = two_hops();  // link 1: 10 Mbps, 10 ms
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    std::vector<std::pair<std::uint64_t, double>> exits;
    path.on_cross_exit(50, [&](packet p) { exits.emplace_back(p.seq, s.now()); });
    constexpr int k_packets = 30;  // within the 32-packet buffer
    for (int i = 0; i < k_packets; ++i) {
        packet p = data_packet(50, static_cast<std::uint64_t>(i));
        p.kind = packet_kind::cross;
        path.inject_forward(1, p);
    }
    s.run_all();
    ASSERT_EQ(exits.size(), static_cast<std::size_t>(k_packets));
    EXPECT_EQ(s.fired(), static_cast<std::uint64_t>(k_packets));  // one per packet
    for (int i = 0; i < k_packets; ++i) {
        // Back to back: packet i departs after (i + 1) transmissions.
        EXPECT_EQ(exits[static_cast<std::size_t>(i)].first, static_cast<std::uint64_t>(i));
        EXPECT_NEAR(exits[static_cast<std::size_t>(i)].second, (i + 1) * 0.0012 + 0.010, 1e-9);
    }
}

TEST(duplex_path, cross_and_end_to_end_share_the_bottleneck_queue) {
    sim::scheduler s;
    std::vector<hop_config> fwd{
        hop_config{core::bits_per_second{1e6}, core::seconds{0.0}, 1}};  // tiny buffer
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    int delivered = 0;
    path.on_deliver_forward(1, [&](packet) { ++delivered; });
    // Fill the bottleneck with cross traffic, then offer an end-to-end
    // packet: it must be dropped.
    packet cross = data_packet(50);
    cross.kind = packet_kind::cross;
    path.inject_forward(0, cross);
    path.inject_forward(0, cross);
    path.send_forward(data_packet(1));
    s.run_all();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(path.forward_link(0).stats().dropped, 1u);
}

TEST(duplex_path, requires_at_least_one_hop) {
    sim::scheduler s;
    const std::vector<hop_config> none;
    const auto rev = one_hop();
    EXPECT_THROW(duplex_path(s, none, rev), std::invalid_argument);
}

TEST(shared_link_conduit, round_trip_covers_all_delays) {
    sim::scheduler s;
    const auto fwd = two_hops();
    const auto rev = one_hop();
    duplex_path path(s, fwd, rev);
    shared_link_conduit conduit(s, path, 1, 60, core::seconds{0.010},
                                core::seconds{0.010}, core::seconds{0.020});
    EXPECT_NEAR(conduit.round_trip_floor().value(), 0.040, 1e-12);

    double data_at = -1.0, ack_at = -1.0;
    conduit.on_deliver_data(60, [&](packet) { data_at = s.now(); });
    conduit.on_deliver_ack(60, [&](packet) { ack_at = s.now(); });
    conduit.send_data(data_packet(60, 0, 1500));
    s.run_all();
    // access 10 ms + tx 1.2 ms + prop 10 ms + egress 10 ms.
    EXPECT_NEAR(data_at, 0.010 + 0.0012 + 0.010 + 0.010, 1e-9);
    packet ack;
    ack.flow = 60;
    ack.kind = packet_kind::tcp_ack;
    ack.size_bytes = 40;
    conduit.send_ack(ack);
    s.run_all();
    EXPECT_NEAR(ack_at - data_at, 0.020, 1e-9);
}

}  // namespace
}  // namespace tcppred::net
