// Property-based suites: invariants that must hold across randomized
// scenarios of the simulator and the prediction library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/units.hpp"
#include "core/lso.hpp"
#include "core/metrics.hpp"
#include "net/cross_traffic.hpp"
#include "net/path.hpp"
#include "probe/pathload.hpp"
#include "probe/ping_prober.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp.hpp"

namespace tcppred {
namespace {

// --- scheduler: events always fire in nondecreasing time order, whatever
//     the insertion pattern.
class scheduler_order : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(scheduler_order, random_insertions_fire_in_order) {
    sim::scheduler s;
    sim::rng r(GetParam());
    std::vector<double> fired;
    // Seed events that themselves schedule more events.
    std::function<void()> spawn = [&] {
        fired.push_back(s.now());
        if (fired.size() < 500) {
            s.schedule_in(r.uniform(0.0, 2.0), spawn);
            if (r.chance(0.5)) s.schedule_in(r.uniform(0.0, 0.5), spawn);
        }
    };
    for (int i = 0; i < 5; ++i) s.schedule_at(r.uniform(0.0, 1.0), spawn);
    s.run_all();
    ASSERT_GE(fired.size(), 5u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(seeds, scheduler_order, ::testing::Values(1, 7, 42, 1234));

// --- link: packet conservation (enqueued = delivered + dropped + queued)
//     under random offered load.
class link_conservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(link_conservation, packets_are_conserved) {
    sim::scheduler s;
    sim::rng r(GetParam());
    net::link l(s, r.uniform(1e6, 20e6), r.uniform(0.001, 0.05),
                static_cast<std::size_t>(r.uniform_int(2, 64)));
    std::uint64_t delivered = 0;
    l.set_sink([&](net::packet) { ++delivered; });

    std::uint64_t offered = 0;
    for (int burst = 0; burst < 20; ++burst) {
        s.schedule_at(r.uniform(0.0, 1.0), [&] {
            for (int i = 0; i < 30; ++i) {
                net::packet p;
                p.flow = 1;
                p.size_bytes = static_cast<std::uint32_t>(r.uniform_int(40, 1500));
                l.enqueue(p);
                ++offered;
            }
        });
    }
    s.run_all();
    EXPECT_EQ(offered, delivered + l.stats().dropped);
    EXPECT_EQ(delivered, l.stats().delivered);
    EXPECT_EQ(l.queue_length(), 0u);
}

INSTANTIATE_TEST_SUITE_P(seeds, link_conservation, ::testing::Values(3, 9, 77, 2024));

// --- TCP: across random path conditions, accounting invariants hold and
//     delivered data never exceeds sent data.
class tcp_invariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(tcp_invariants, accounting_is_consistent) {
    sim::rng r(GetParam());
    sim::scheduler sched;
    const double cap = r.uniform(1e6, 15e6);
    std::vector<net::hop_config> fwd{net::hop_config{
        core::bits_per_second{cap}, core::seconds{r.uniform(0.005, 0.08)},
        static_cast<std::size_t>(r.uniform_int(8, 120))}};
    std::vector<net::hop_config> rev{net::hop_config{
        core::bits_per_second{100e6}, core::seconds{r.uniform(0.005, 0.08)}, 512}};
    net::duplex_path path(sched, fwd, rev);
    if (r.chance(0.5)) path.forward_link(0).set_random_loss(r.uniform(0.0, 0.02), 5);
    net::poisson_source cross(sched, path, 0, 99, r.uniform_int(1, 1 << 30),
                              r.uniform(0.0, 0.8) * cap);
    cross.start();

    net::path_conduit conduit(path);
    tcp::tcp_config cfg;
    cfg.max_window_bytes = static_cast<std::uint64_t>(r.uniform_int(8, 1024)) * 1024;
    tcp::tcp_connection conn(sched, conduit, 1, cfg);
    conn.start();
    sched.run_until(8.0);
    conn.quiesce();
    cross.stop();
    sched.run_all();

    const auto& st = conn.sender().stats();
    EXPECT_LE(st.segments_delivered, st.segments_sent);
    EXPECT_LE(st.retransmits, st.segments_sent);
    EXPECT_LE(st.fast_recoveries + st.timeouts, st.segments_sent);
    EXPECT_EQ(conn.sender().acked_bytes(), st.segments_delivered * core::k_mss_bytes);
    // The receiver's cumulative progress can only run AHEAD of the sender's
    // ACKed view (final ACKs may be lost or arrive after quiesce), never
    // behind it.
    EXPECT_GE(conn.receiver().next_expected(), st.segments_delivered);
    // Goodput can never exceed the bottleneck capacity.
    EXPECT_LE(static_cast<double>(conn.sender().acked_bytes()) * 8.0 / 8.0, cap * 1.01);
    for (const double sample : st.rtt_samples) EXPECT_GT(sample, 0.0);
}

INSTANTIATE_TEST_SUITE_P(seeds, tcp_invariants,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- ping prober: loss rate in [0,1], RTTs at least the propagation floor,
//     sent == configured count, under random load.
class prober_bounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(prober_bounds, results_within_physical_bounds) {
    sim::rng r(GetParam());
    sim::scheduler sched;
    const double rtt = r.uniform(0.01, 0.2);
    std::vector<net::hop_config> fwd{net::hop_config{
        core::bits_per_second{r.uniform(1e6, 10e6)}, core::seconds{rtt / 2},
        static_cast<std::size_t>(r.uniform_int(4, 64))}};
    std::vector<net::hop_config> rev{net::hop_config{
        core::bits_per_second{100e6}, core::seconds{rtt / 2}, 512}};
    net::duplex_path path(sched, fwd, rev);
    net::poisson_source cross(sched, path, 0, 99, 11, r.uniform(0.3, 1.1) * 5e6);
    cross.start();

    probe::ping_config cfg;
    cfg.count = 150;
    probe::ping_prober prober(sched, path, 1, cfg);
    prober.start();
    sched.run_until(60.0);
    cross.stop();
    sched.run_all();

    ASSERT_TRUE(prober.done());
    const auto& res = prober.result();
    EXPECT_EQ(res.sent, 150u);
    EXPECT_GE(res.loss_rate().value(), 0.0);
    EXPECT_LE(res.loss_rate().value(), 1.0);
    EXPECT_EQ(res.rtts.size(), res.received);
    for (const double sample : res.rtts) EXPECT_GE(sample, rtt - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(seeds, prober_bounds, ::testing::Values(4, 19, 100, 555));

// --- pathload: the final bracket is ordered and inside the search range.
class pathload_bracket : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(pathload_bracket, bracket_invariants) {
    sim::rng r(GetParam());
    sim::scheduler sched;
    const double cap = r.uniform(2e6, 12e6);
    std::vector<net::hop_config> fwd{net::hop_config{
        core::bits_per_second{cap}, core::seconds{0.02}, 100}};
    std::vector<net::hop_config> rev{net::hop_config{
        core::bits_per_second{100e6}, core::seconds{0.02}, 512}};
    net::duplex_path path(sched, fwd, rev);
    net::poisson_source cross(sched, path, 0, 99, 3, r.uniform(0.0, 0.7) * cap);
    cross.start();

    probe::pathload_config cfg;
    cfg.max_rate = core::bits_per_second{cap * 1.3};
    probe::pathload pl(sched, path, 1, cfg);
    sched.run_until(1.0);
    pl.start();
    sched.run_until(120.0);
    ASSERT_TRUE(pl.done());
    const auto& res = pl.result();
    EXPECT_LE(res.low_bps, res.high_bps);
    EXPECT_GE(res.low_bps, probe::k_pathload_min_rate.value() - 1.0);
    EXPECT_LE(res.high_bps, cfg.max_rate.value() + 1.0);
    EXPECT_GE(res.streams_used, 1);
    EXPECT_LE(res.streams_used, cfg.max_streams);
}

INSTANTIATE_TEST_SUITE_P(seeds, pathload_bracket, ::testing::Values(6, 28, 303));

// --- relative error: algebraic properties for arbitrary positive pairs.
class error_properties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(error_properties, symmetry_scale_invariance_and_sign) {
    sim::rng r(GetParam());
    for (int i = 0; i < 200; ++i) {
        const double actual = r.uniform(1e3, 1e8);
        const double w = r.uniform(1.01, 50.0);
        // |E| identical for w-times over- and underestimation.
        EXPECT_NEAR(core::relative_error(actual * w, actual),
                    -core::relative_error(actual / w, actual), 1e-6);
        // Scale invariance: scaling both by a constant keeps E.
        const double k = r.uniform(0.1, 1000.0);
        EXPECT_NEAR(core::relative_error(actual * w, actual),
                    core::relative_error(actual * w * k, actual * k), 1e-6);
        // E is zero iff prediction equals actual.
        EXPECT_DOUBLE_EQ(core::relative_error(actual, actual), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, error_properties, ::testing::Values(17, 23));

// --- LSO predictor never forecasts NaN once it has seen a sample, and its
//     forecast stays within the range of the cleaned history (for MA inner).
class lso_forecast_bounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(lso_forecast_bounds, forecast_within_cleaned_history_range) {
    sim::rng r(GetParam());
    core::lso_predictor pred(std::make_unique<core::moving_average>(10));
    double level = r.uniform(1e6, 1e7);
    for (int i = 0; i < 120; ++i) {
        if (r.chance(0.03)) level *= r.chance(0.5) ? 2.5 : 0.4;  // level shifts
        double x = level * (1.0 + r.normal(0.0, 0.1));
        if (r.chance(0.02)) x *= 4.0;  // outliers
        x = std::max(x, 1.0);
        pred.observe(x);
        const double f = pred.predict();
        ASSERT_FALSE(std::isnan(f));
        double lo = 1e300, hi = 0;
        for (const auto& s : pred.filter().cleaned()) {
            lo = std::min(lo, s.value);
            hi = std::max(hi, s.value);
        }
        EXPECT_GE(f, lo - 1e-6);
        EXPECT_LE(f, hi + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, lso_forecast_bounds, ::testing::Values(5, 50, 500));

// --- destruction safety: probers/transfers/connections destroyed while the
//     simulation keeps running must not corrupt anything (regression test
//     for the dangling-callback class of bugs).
TEST(lifetime_safety, components_can_die_mid_simulation) {
    sim::scheduler sched;
    std::vector<net::hop_config> fwd{net::hop_config{
        core::bits_per_second{5e6}, core::seconds{0.02}, 30}};
    std::vector<net::hop_config> rev{net::hop_config{
        core::bits_per_second{100e6}, core::seconds{0.02}, 512}};
    net::duplex_path path(sched, fwd, rev);
    net::poisson_source cross(sched, path, 0, 99, 1, 3e6);
    cross.start();

    for (int round = 0; round < 5; ++round) {
        {
            net::path_conduit conduit(path);
            tcp::tcp_connection conn(sched, conduit,
                                     static_cast<net::flow_id>(100 + round));
            conn.start();
            sched.run_until(sched.now() + 1.0);
            // Destroyed WITHOUT quiesce, with packets in flight and timers
            // armed.
        }
        {
            probe::ping_config pc;
            pc.count = 30;
            probe::ping_prober prober(sched, path,
                                      static_cast<net::flow_id>(200 + round), pc);
            prober.start();
            sched.run_until(sched.now() + 0.2);
            // Destroyed mid-probing: timeouts pending.
        }
        sched.run_until(sched.now() + 3.0);  // stale events must be harmless
    }
    SUCCEED();
}

}  // namespace
}  // namespace tcppred
