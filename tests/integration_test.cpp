// Integration tests across modules: elastic cross flows competing with the
// target through shared_link_conduit, probers running concurrently with
// transfers, and the full epoch pipeline producing consistent artifacts.
#include <gtest/gtest.h>

#include <memory>

#include "core/units.hpp"
#include "core/loss_events.hpp"
#include "net/cross_traffic.hpp"
#include "net/path.hpp"
#include "probe/bulk_transfer.hpp"
#include "probe/pathload.hpp"
#include "probe/ping_prober.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp.hpp"

namespace tcppred {
namespace {

struct world {
    sim::scheduler sched;
    std::unique_ptr<net::duplex_path> path;

    world(double cap_bps, double rtt_s, std::size_t buffer) {
        std::vector<net::hop_config> fwd{
            net::hop_config{core::bits_per_second{100e6}, core::seconds{rtt_s * 0.1},
                            512},
            net::hop_config{core::bits_per_second{cap_bps}, core::seconds{rtt_s * 0.4},
                            buffer}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{rtt_s * 0.5}, 512}};
        path = std::make_unique<net::duplex_path>(sched, fwd, rev);
    }
};

TEST(elastic_flows, compete_for_the_bottleneck_and_make_progress) {
    world w(10e6, 0.060, 80);

    // Two elastic competitors over the bottleneck link (index 1).
    std::vector<std::unique_ptr<net::shared_link_conduit>> conduits;
    std::vector<std::unique_ptr<tcp::tcp_connection>> elastic;
    for (int i = 0; i < 2; ++i) {
        conduits.push_back(std::make_unique<net::shared_link_conduit>(
            w.sched, *w.path, 1, 500 + static_cast<net::flow_id>(i), core::seconds{0.01},
            core::seconds{0.01}, core::seconds{0.02}));
        tcp::tcp_config cfg;
        cfg.max_window_bytes = 32 * 1024;
        elastic.push_back(std::make_unique<tcp::tcp_connection>(
            w.sched, *conduits.back(), 500 + static_cast<net::flow_id>(i), cfg));
        elastic.back()->start();
    }

    net::path_conduit conduit(*w.path);
    tcp::tcp_config cfg;
    cfg.initial_ssthresh_segments = 128;
    tcp::tcp_connection target(w.sched, conduit, 1, cfg);
    target.start();

    w.sched.run_until(10.0);
    target.quiesce();
    for (auto& e : elastic) e->quiesce();

    const double target_bps = static_cast<double>(target.sender().acked_bytes()) * 8 / 10;
    double elastic_bps = 0;
    for (auto& e : elastic) {
        EXPECT_GT(e->sender().stats().segments_delivered, 100u);
        elastic_bps += static_cast<double>(e->sender().acked_bytes()) * 8 / 10;
    }
    // Everyone progresses; total is bounded by capacity.
    EXPECT_GT(target_bps, 1e6);
    EXPECT_GT(elastic_bps, 1e6);
    EXPECT_LT(target_bps + elastic_bps, 10e6);
}

TEST(concurrent_measurement, prober_and_transfer_coexist) {
    world w(8e6, 0.050, 60);

    probe::ping_config pc;
    pc.count = 200;
    probe::ping_prober prober(w.sched, *w.path, 7, pc);

    net::path_conduit conduit(*w.path);
    tcp::tcp_config tcfg;
    tcfg.variant = tcp::tcp_variant::sack;
    tcfg.initial_ssthresh_segments = 128;
    probe::bulk_transfer xfer(w.sched, conduit, 1, core::seconds{6.0}, tcfg);

    prober.start();
    xfer.start();
    w.sched.run_until(10.0);

    ASSERT_TRUE(prober.done());
    ASSERT_TRUE(xfer.done());
    // The probe RTT during the transfer reflects the queue the transfer
    // builds: above the 50 ms propagation floor.
    EXPECT_GT(prober.result().mean_rtt().value(), 0.050);
    EXPECT_GT(xfer.result().goodput().value(), 2e6);
    // Probe outcomes exist for every probe sent.
    EXPECT_EQ(prober.result().outcomes.size(), 200u);
    EXPECT_LE(core::loss_event_rate(prober.result().outcomes),
              core::packet_loss_rate(prober.result().outcomes) + 1e-12);
}

TEST(concurrent_measurement, pathload_then_transfer_sequence) {
    world w(10e6, 0.040, 80);
    net::poisson_source cross(w.sched, *w.path, 1, 99, 5, 4e6);
    cross.start();
    w.sched.run_until(1.0);

    probe::pathload_config plc;
    plc.max_rate = core::bits_per_second{13e6};
    probe::pathload pl(w.sched, *w.path, 8, plc);
    bool transfer_done = false;
    double availbw = 0, goodput = 0;

    net::path_conduit conduit(*w.path);
    tcp::tcp_config tcfg;
    tcfg.variant = tcp::tcp_variant::sack;
    tcfg.initial_ssthresh_segments = 128;
    probe::bulk_transfer xfer(w.sched, conduit, 1, core::seconds{6.0}, tcfg);

    pl.start([&](const probe::pathload_result& r) {
        availbw = r.estimate().value();
        xfer.start([&](const probe::transfer_result& t) {
            goodput = t.goodput().value();
            transfer_done = true;
        });
    });
    while (!transfer_done && w.sched.now() < 120.0) {
        if (!w.sched.step()) break;
    }
    ASSERT_TRUE(transfer_done);
    EXPECT_GT(availbw, 1e6);
    EXPECT_GT(goodput, 1e6);
    // The saturating transfer should reach the same order as the leftover
    // capacity the avail-bw estimate saw.
    EXPECT_LT(goodput, availbw * 2.5);
    EXPECT_GT(goodput, availbw * 0.2);
}

TEST(rto_backoff, cap_limits_stall_length) {
    // A total outage drops everything; with max_rto_backoff = 2 the RTO
    // plateaus at 4x and retransmissions keep probing.
    world w(5e6, 0.040, 30);
    w.path->forward_link(1).set_random_loss(1.0, 3);  // everything dies

    net::path_conduit conduit(*w.path);
    tcp::tcp_config cfg;
    cfg.max_rto_backoff = 2;
    tcp::tcp_connection conn(w.sched, conduit, 1, cfg);
    conn.start();
    w.sched.run_until(20.0);
    const auto timeouts_capped = conn.sender().stats().timeouts;
    conn.quiesce();

    world w2(5e6, 0.040, 30);
    w2.path->forward_link(1).set_random_loss(1.0, 3);
    net::path_conduit conduit2(*w2.path);
    tcp::tcp_config cfg2;
    cfg2.max_rto_backoff = 6;
    tcp::tcp_connection conn2(w2.sched, conduit2, 1, cfg2);
    conn2.start();
    w2.sched.run_until(20.0);
    conn2.quiesce();

    // Capped backoff retries strictly more often during the outage.
    EXPECT_GT(timeouts_capped, conn2.sender().stats().timeouts);
}

TEST(receiver_edges, duplicate_and_stale_segments_are_reacked) {
    sim::scheduler sched;
    std::vector<net::hop_config> fwd{net::hop_config{
        core::bits_per_second{10e6}, core::seconds{0.01}, 64}};
    std::vector<net::hop_config> rev{net::hop_config{
        core::bits_per_second{10e6}, core::seconds{0.01}, 64}};
    net::duplex_path path(sched, fwd, rev);
    net::path_conduit conduit(path);

    std::vector<net::packet> acks;
    conduit.on_deliver_ack(1, [&](net::packet p) { acks.push_back(p); });
    tcp::tcp_config cfg;
    cfg.delayed_ack = false;
    tcp::tcp_receiver receiver(sched, conduit, 1, cfg);

    const auto data = [&](std::uint64_t seq) {
        net::packet p;
        p.flow = 1;
        p.kind = net::packet_kind::tcp_data;
        p.size_bytes = 1500;
        p.seq = seq;
        path.send_forward(p);
    };
    data(0);
    data(1);
    data(0);  // stale duplicate
    data(1);  // stale duplicate
    sched.run_all();
    ASSERT_EQ(acks.size(), 4u);
    EXPECT_EQ(acks.back().ack, 2u);  // cumulative ack re-sent, not regressed
    EXPECT_EQ(receiver.next_expected(), 2u);
}

}  // namespace
}  // namespace tcppred
