#include <gtest/gtest.h>

#include <memory>

#include "core/units.hpp"
#include "net/cross_traffic.hpp"
#include "probe/pathload.hpp"
#include "probe/ping_prober.hpp"

namespace tcppred::probe {
namespace {

struct world {
    sim::scheduler sched;
    std::unique_ptr<net::duplex_path> path;

    world(double cap_bps, double rtt_s, std::size_t buffer) {
        std::vector<net::hop_config> fwd{net::hop_config{
            core::bits_per_second{cap_bps}, core::seconds{rtt_s / 2.0}, buffer}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{rtt_s / 2.0}, 512}};
        path = std::make_unique<net::duplex_path>(sched, fwd, rev);
    }
};

TEST(ping_prober, measures_base_rtt_on_idle_path) {
    world w(10e6, 0.050, 64);
    ping_config cfg;
    cfg.count = 100;
    ping_prober prober(w.sched, *w.path, 1, cfg);
    prober.start();
    w.sched.run_until(10.0);
    ASSERT_TRUE(prober.done());
    const ping_result& r = prober.result();
    EXPECT_EQ(r.sent, 100u);
    EXPECT_EQ(r.received, 100u);
    EXPECT_EQ(r.injected_timeouts, 0u);
    EXPECT_FALSE(r.truncated);
    EXPECT_DOUBLE_EQ(r.loss_rate().value(), 0.0);
    EXPECT_NEAR(r.mean_rtt().value(), 0.050, 0.002);
}

TEST(ping_prober, sees_queueing_delay_under_load) {
    world w(2e6, 0.040, 60);
    net::poisson_source cross(w.sched, *w.path, 0, 99, 7, 1.7e6);  // 85% load
    cross.start();
    ping_config cfg;
    cfg.count = 300;
    ping_prober prober(w.sched, *w.path, 1, cfg);
    w.sched.run_until(1.0);  // warm the queue
    prober.start();
    w.sched.run_until(20.0);
    ASSERT_TRUE(prober.done());
    EXPECT_GT(prober.result().mean_rtt().value(), 0.045);
}

TEST(ping_prober, counts_losses_on_saturated_path) {
    world w(1e6, 0.030, 10);
    net::poisson_source cross(w.sched, *w.path, 0, 99, 7, 1.3e6);  // >100% load
    cross.start();
    ping_config cfg;
    cfg.count = 300;
    ping_prober prober(w.sched, *w.path, 1, cfg);
    w.sched.run_until(1.0);
    prober.start();
    w.sched.run_until(30.0);
    ASSERT_TRUE(prober.done());
    EXPECT_GT(prober.result().loss_rate().value(), 0.05);
    EXPECT_LT(prober.result().loss_rate().value(), 1.0);
}

TEST(ping_prober, completion_callback_fires_once) {
    world w(10e6, 0.020, 64);
    ping_config cfg;
    cfg.count = 10;
    ping_prober prober(w.sched, *w.path, 1, cfg);
    int called = 0;
    prober.start([&](const ping_result&) { ++called; });
    w.sched.run_until(5.0);
    EXPECT_EQ(called, 1);
}

TEST(classify_trend, detects_increasing_delays) {
    std::vector<double> owds;
    for (int i = 0; i < 60; ++i) owds.push_back(0.010 + i * 0.0005);
    EXPECT_EQ(classify_trend(owds), owd_trend::increasing);
}

TEST(classify_trend, flat_delays_are_non_increasing) {
    std::vector<double> owds(60, 0.010);
    // Alternate tiny jitter around the constant.
    for (std::size_t i = 0; i < owds.size(); ++i) {
        owds[i] += (i % 2 == 0 ? 1 : -1) * 1e-6;
    }
    EXPECT_EQ(classify_trend(owds), owd_trend::non_increasing);
}

TEST(classify_trend, too_few_samples_is_ambiguous) {
    EXPECT_EQ(classify_trend({0.01, 0.02, 0.03}), owd_trend::ambiguous);
}

TEST(pathload, estimates_capacity_on_idle_path) {
    world w(10e6, 0.040, 100);
    pathload_config cfg;
    cfg.max_rate = core::bits_per_second{13e6};
    pathload pl(w.sched, *w.path, 1, cfg);
    pl.start();
    w.sched.run_until(30.0);
    ASSERT_TRUE(pl.done());
    // Idle path: avail-bw ~ capacity (10 Mbps). Allow generous tolerance
    // for the binary-search bracket.
    EXPECT_GT(pl.result().estimate().value(), 7e6);
    EXPECT_LT(pl.result().estimate().value(), 13e6);
}

TEST(pathload, estimates_leftover_bandwidth_under_load) {
    world w(10e6, 0.040, 100);
    net::poisson_source cross(w.sched, *w.path, 0, 99, 7, 6e6);  // 60% load
    cross.start();
    pathload_config cfg;
    cfg.max_rate = core::bits_per_second{13e6};
    pathload pl(w.sched, *w.path, 1, cfg);
    w.sched.run_until(1.0);
    pl.start();
    w.sched.run_until(60.0);
    ASSERT_TRUE(pl.done());
    // Avail-bw ~ 4 Mbps; accept the bracket being within a factor ~2.
    EXPECT_GT(pl.result().estimate().value(), 1.5e6);
    EXPECT_LT(pl.result().estimate().value(), 8e6);
}

TEST(pathload, respects_stream_budget) {
    world w(10e6, 0.040, 100);
    pathload_config cfg;
    cfg.max_streams = 4;
    pathload pl(w.sched, *w.path, 1, cfg);
    pl.start();
    w.sched.run_until(30.0);
    ASSERT_TRUE(pl.done());
    EXPECT_LE(pl.result().streams_used, 4);
}

// Open-loop packets have no exit: what a source offered is what its link
// carried (the 100 Mb/s link never fills its 512-packet buffer).
TEST(cross_traffic, poisson_rate_converges) {
    world w(100e6, 0.010, 512);
    net::poisson_source src(w.sched, *w.path, 0, 5, 11, 5e6);
    src.start();
    w.sched.run_until(50.0);
    src.stop();
    const auto bytes = w.path->forward_link(0).stats().bytes_delivered;
    const double rate = static_cast<double>(bytes) * 8.0 / 50.0;
    EXPECT_NEAR(rate, 5e6, 0.6e6);
}

TEST(cross_traffic, pareto_mean_rate_approximates_target) {
    world w(100e6, 0.010, 512);
    net::pareto_onoff_source src(w.sched, *w.path, 0, 5, 11, net::pareto_onoff_config{});
    src.set_mean_rate(2e6);
    src.start();
    w.sched.run_until(300.0);
    src.stop();
    const auto bytes = w.path->forward_link(0).stats().bytes_delivered;
    const double rate = static_cast<double>(bytes) * 8.0 / 300.0;
    // Heavy-tailed ON periods converge slowly; just require the right scale.
    EXPECT_GT(rate, 0.8e6);
    EXPECT_LT(rate, 4.0e6);
}

// A source stopped and started again runs one arrival process, not its old
// one beside a new one. A 5 Mb/s Poisson source and a 2 Mb/s-mean on/off
// source are restarted at t = 1 s; over the next 300 s the link must see
// about 7 Mb/s: carried bytes in packet mode, the fluid rate in fluid mode.
TEST(cross_traffic, restarted_sources_offer_their_configured_rate) {
    for (const net::cross_model model : {net::cross_model::packet, net::cross_model::fluid}) {
        const bool fluid = model == net::cross_model::fluid;
        world w(100e6, 0.010, 512);
        net::link& l = w.path->forward_link(0);
        if (fluid) l.set_fluid_mean_packet_bytes(1500.0);
        net::poisson_source poisson(w.sched, *w.path, 0, 5, 11, 5e6, {}, model);
        net::pareto_onoff_source bursts(w.sched, *w.path, 0, 6, 12,
                                        net::pareto_onoff_config{}, model);
        bursts.set_mean_rate(2e6);
        poisson.start();
        bursts.start();
        w.sched.run_until(1.0);
        poisson.stop();
        bursts.stop();
        poisson.start();
        bursts.start();
        const std::uint64_t bytes_before = l.stats().bytes_delivered;
        double fluid_sum = 0.0;
        constexpr int k_samples = 30000;  // every 10 ms
        for (int i = 1; i <= k_samples; ++i) {
            w.sched.run_until(1.0 + 0.01 * i);
            fluid_sum += l.fluid_rate_bps();
        }
        const double offered =
            fluid ? fluid_sum / k_samples
                  : static_cast<double>(l.stats().bytes_delivered - bytes_before) * 8.0 / 300.0;
        EXPECT_GT(offered, 5.5e6) << (fluid ? "fluid" : "packet");
        EXPECT_LT(offered, 9.0e6) << (fluid ? "fluid" : "packet");
    }
}

}  // namespace
}  // namespace tcppred::probe
