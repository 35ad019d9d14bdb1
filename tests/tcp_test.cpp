#include "tcp/tcp.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/units.hpp"
#include "net/cross_traffic.hpp"
#include "probe/bulk_transfer.hpp"

namespace tcppred::tcp {
namespace {

struct world {
    sim::scheduler sched;
    std::unique_ptr<net::duplex_path> path;
    std::unique_ptr<net::path_conduit> conduit;

    world(double cap_bps, double rtt_s, std::size_t buffer) {
        std::vector<net::hop_config> fwd{net::hop_config{
            core::bits_per_second{cap_bps}, core::seconds{rtt_s / 2.0}, buffer}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{rtt_s / 2.0}, 512}};
        path = std::make_unique<net::duplex_path>(sched, fwd, rev);
        conduit = std::make_unique<net::path_conduit>(*path);
    }
};

TEST(tcp, clean_path_reaches_near_capacity) {
    world w(10e6, 0.040, 100);
    tcp_config cfg;
    cfg.initial_ssthresh_segments = 128;  // cached ssthresh, as on repeat paths
    tcp_connection conn(w.sched, *w.conduit, 1, cfg);
    conn.start();
    w.sched.run_until(10.0);
    conn.quiesce();
    const double goodput = static_cast<double>(conn.sender().acked_bytes()) * 8.0 / 10.0;
    // Payload efficiency 1460/1500 of 10 Mbps ~ 9.7 Mbps, minus slow start.
    EXPECT_GT(goodput, 6.5e6);
    EXPECT_LT(goodput, 10.0e6);
}

TEST(tcp, window_limited_throughput_equals_w_over_rtt) {
    world w(10e6, 0.080, 200);
    tcp_config cfg;
    cfg.max_window_bytes = 20 * 1024;  // W/T ~ 2.05 Mbps << capacity
    tcp_connection conn(w.sched, *w.conduit, 1, cfg);
    conn.start();
    w.sched.run_until(10.0);
    conn.quiesce();
    const double goodput = static_cast<double>(conn.sender().acked_bytes()) * 8.0 / 10.0;
    const double rwnd_segments = std::floor(20.0 * 1024 / 1460.0);
    const double expected = rwnd_segments * 1460 * 8 / 0.080;
    EXPECT_NEAR(goodput, expected, expected * 0.15);
    EXPECT_EQ(conn.sender().stats().timeouts, 0u);
    EXPECT_EQ(conn.sender().stats().fast_recoveries, 0u);
}

TEST(tcp, no_losses_on_uncongested_window_limited_path) {
    world w(10e6, 0.050, 64);
    tcp_config cfg;
    cfg.max_window_bytes = 16 * 1024;
    tcp_connection conn(w.sched, *w.conduit, 1, cfg);
    conn.start();
    w.sched.run_until(5.0);
    conn.quiesce();
    EXPECT_EQ(conn.sender().stats().retransmits, 0u);
}

TEST(tcp, congestion_triggers_fast_recovery_not_only_timeouts) {
    world w(5e6, 0.040, 20);
    tcp_config cfg;  // W = 1 MB >> BDP: will overflow the 20-packet buffer
    tcp_connection conn(w.sched, *w.conduit, 1, cfg);
    conn.start();
    w.sched.run_until(20.0);
    conn.quiesce();
    const auto& st = conn.sender().stats();
    EXPECT_GT(st.fast_recoveries, 0u);
    EXPECT_GT(st.retransmits, 0u);
    // Still must make good progress: above 50% of capacity.
    const double goodput = static_cast<double>(conn.sender().acked_bytes()) * 8.0 / 20.0;
    EXPECT_GT(goodput, 2.5e6);
}

TEST(tcp, recovers_all_data_despite_heavy_cross_traffic) {
    world w(5e6, 0.030, 30);
    // Load the bottleneck to ~70%.
    net::poisson_source cross(w.sched, *w.path, 0, 99, 1234, 3.5e6);
    cross.start();
    tcp_connection conn(w.sched, *w.conduit, 1, tcp_config{});
    conn.start();
    w.sched.run_until(15.0);
    conn.quiesce();
    cross.stop();
    const auto& st = conn.sender().stats();
    // Delivered = cumulatively ACKed: no holes, every byte arrived in order.
    EXPECT_GT(st.segments_delivered, 700u);
    EXPECT_GT(st.retransmits, 0u);
}

TEST(tcp, rtt_estimate_tracks_path_rtt) {
    world w(10e6, 0.060, 100);
    tcp_config cfg;
    cfg.max_window_bytes = 16 * 1024;  // keep queues empty
    tcp_connection conn(w.sched, *w.conduit, 1, cfg);
    conn.start();
    w.sched.run_until(5.0);
    conn.quiesce();
    EXPECT_NEAR(conn.sender().smoothed_rtt().value(), 0.060, 0.015);
}

TEST(tcp, delayed_ack_halves_ack_volume) {
    world w(10e6, 0.040, 100);
    tcp_config cfg;
    cfg.max_window_bytes = 64 * 1024;
    tcp_connection conn(w.sched, *w.conduit, 1, cfg);
    conn.start();
    w.sched.run_until(5.0);
    conn.quiesce();
    const auto sent = conn.sender().stats().segments_sent;
    const auto acks = conn.receiver().acks_sent();
    EXPECT_LT(acks, sent * 3 / 4);
    EXPECT_GT(acks, sent / 3);
}

TEST(tcp, immediate_ack_mode_acks_every_segment) {
    world w(10e6, 0.040, 200);
    tcp_config cfg;
    cfg.delayed_ack = false;
    cfg.max_window_bytes = 32 * 1024;  // window-limited: lossless
    tcp_connection conn(w.sched, *w.conduit, 1, cfg);
    conn.start();
    w.sched.run_until(3.0);
    conn.quiesce();
    EXPECT_EQ(conn.sender().stats().retransmits, 0u);
    EXPECT_GE(conn.receiver().acks_sent() + 30, conn.sender().stats().segments_sent);
}

TEST(tcp, quiesce_halts_all_transmissions) {
    world w(10e6, 0.040, 100);
    tcp_connection conn(w.sched, *w.conduit, 1, tcp_config{});
    conn.start();
    w.sched.run_until(2.0);
    conn.quiesce();
    const auto sent_at_stop = conn.sender().stats().segments_sent;
    w.sched.run_until(6.0);
    EXPECT_EQ(conn.sender().stats().segments_sent, sent_at_stop);
}

TEST(tcp, stop_offers_no_new_data_but_still_retransmits) {
    world w(5e6, 0.040, 15);  // lossy: retransmissions pending at stop
    tcp_connection conn(w.sched, *w.conduit, 1, tcp_config{});
    conn.start();
    w.sched.run_until(3.0);
    conn.stop();
    const auto delivered_at_stop = conn.sender().stats().segments_delivered;
    w.sched.run_until(10.0);
    // The retransmission machinery may still complete in-flight data, but
    // no segment beyond the pre-stop high-water mark is ever delivered.
    EXPECT_GE(conn.sender().stats().segments_delivered, delivered_at_stop);
    conn.quiesce();
}

TEST(tcp, congestion_events_fewer_than_retransmits_under_burst_loss) {
    world w(5e6, 0.040, 15);
    tcp_connection conn(w.sched, *w.conduit, 1, tcp_config{});
    conn.start();
    w.sched.run_until(20.0);
    conn.quiesce();
    const auto& st = conn.sender().stats();
    ASSERT_GT(st.congestion_events(), 0u);
    // Drop-tail drops come in bursts: several retransmitted segments share
    // one congestion event (the p vs p' discrepancy of §3.3).
    EXPECT_GE(st.retransmits, st.congestion_events());
}

TEST(tcp, rtt_samples_are_positive_and_at_least_base_rtt) {
    world w(10e6, 0.050, 50);
    tcp_connection conn(w.sched, *w.conduit, 1, tcp_config{});
    conn.start();
    w.sched.run_until(5.0);
    conn.quiesce();
    const auto& samples = conn.sender().stats().rtt_samples;
    ASSERT_FALSE(samples.empty());
    for (const double s : samples) EXPECT_GE(s, 0.050 - 1e-9);
}

TEST(bulk_transfer, reports_goodput_and_prefix_checkpoints) {
    world w(10e6, 0.030, 100);
    tcp_config cfg;
    cfg.initial_ssthresh_segments = 128;
    probe::bulk_transfer xfer(w.sched, *w.conduit, 1, core::seconds{4.0}, cfg);
    xfer.add_prefix_checkpoints({1.0, 2.0});
    bool called = false;
    xfer.start([&](const probe::transfer_result& r) {
        called = true;
        EXPECT_FALSE(r.aborted);
        EXPECT_NEAR(r.duration_s, 4.0, 1e-9);
        EXPECT_GT(r.goodput().value(), 4e6);
        ASSERT_EQ(r.prefix_goodput_bps.size(), 2u);
        EXPECT_DOUBLE_EQ(r.prefix_goodput_bps[0].first, 1.0);
        EXPECT_GT(r.prefix_goodput_bps[1].second, 0.0);
    });
    w.sched.run_until(5.0);
    EXPECT_TRUE(called);
    EXPECT_TRUE(xfer.done());
}

}  // namespace
}  // namespace tcppred::tcp
