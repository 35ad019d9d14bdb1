// google-benchmark micro-benchmarks for the simulation substrate: event
// scheduling throughput, link forwarding, and end-to-end TCP simulation
// cost — what bounds the wall-clock of a measurement campaign.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/cross_traffic.hpp"
#include "net/path.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp.hpp"

using namespace tcppred;

namespace {

void bm_scheduler_throughput(benchmark::State& state) {
    for (auto _ : state) {
        sim::scheduler s;
        int fired = 0;
        std::function<void()> chain = [&] {
            if (++fired < 10000) s.schedule_in(0.001, chain);
        };
        s.schedule_in(0.001, chain);
        s.run_all();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(bm_scheduler_throughput);

void bm_link_forwarding(benchmark::State& state) {
    for (auto _ : state) {
        sim::scheduler s;
        net::link l(s, 1e9, 0.001, 4096);
        std::uint64_t delivered = 0;
        l.set_sink([&](net::packet) { ++delivered; });
        for (int i = 0; i < 4096; ++i) {
            net::packet p;
            p.flow = 1;
            p.size_bytes = 1500;
            l.enqueue(p);
        }
        s.run_all();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(bm_link_forwarding);

void bm_tcp_transfer_second(benchmark::State& state) {
    // Cost of simulating one second of a saturating TCP flow at 10 Mbps.
    for (auto _ : state) {
        sim::scheduler sched;
        std::vector<net::hop_config> fwd{net::hop_config{
            core::bits_per_second{10e6}, core::seconds{0.020}, 100}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{0.020}, 512}};
        net::duplex_path path(sched, fwd, rev);
        net::path_conduit conduit(path);
        tcp::tcp_config cfg;
        cfg.initial_ssthresh_segments = 128;
        tcp::tcp_connection conn(sched, conduit, 1, cfg);
        conn.start();
        sched.run_until(1.0);
        conn.quiesce();
        benchmark::DoNotOptimize(conn.sender().acked_bytes());
    }
    state.SetItemsProcessed(state.iterations());  // items = simulated seconds
}
BENCHMARK(bm_tcp_transfer_second);

void bm_loaded_path_second(benchmark::State& state) {
    // One second of TCP + Poisson cross traffic: the campaign's hot loop.
    for (auto _ : state) {
        sim::scheduler sched;
        std::vector<net::hop_config> fwd{net::hop_config{
            core::bits_per_second{10e6}, core::seconds{0.020}, 100}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{0.020}, 512}};
        net::duplex_path path(sched, fwd, rev);
        net::poisson_source cross(sched, path, 0, 99, 7, 5e6);
        cross.start();
        net::path_conduit conduit(path);
        tcp::tcp_config cfg;
        cfg.initial_ssthresh_segments = 128;
        tcp::tcp_connection conn(sched, conduit, 1, cfg);
        conn.start();
        sched.run_until(1.0);
        conn.quiesce();
        cross.stop();
        benchmark::DoNotOptimize(sched.fired());
    }
    state.SetItemsProcessed(state.iterations());  // items = simulated seconds
}
BENCHMARK(bm_loaded_path_second);

void bm_open_loop_second(benchmark::State& state) {
    // One simulated second of an epoch's open-loop mix alone: a Poisson
    // source plus three Pareto on/off sources offering 80 % of a 10 Mbps
    // bottleneck, 30 % of it bursty, with no foreground traffic. It ends
    // with a stats() read; items = cross packets offered.
    constexpr double k_load_bps = 0.8 * 10e6;
    constexpr double k_bursty = 0.3;
    std::int64_t offered = 0;
    for (auto _ : state) {
        sim::scheduler sched;
        std::vector<net::hop_config> fwd{net::hop_config{
            core::bits_per_second{10e6}, core::seconds{0.020}, 100}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{0.020}, 512}};
        net::duplex_path path(sched, fwd, rev);
        net::poisson_source poisson(sched, path, 0, 10, 7, k_load_bps * (1.0 - k_bursty));
        std::vector<std::unique_ptr<net::pareto_onoff_source>> bursts;
        for (std::uint64_t i = 0; i < 3; ++i) {
            bursts.push_back(std::make_unique<net::pareto_onoff_source>(
                sched, path, 0, 11 + i, 8 + i, net::pareto_onoff_config{}));
            bursts.back()->set_mean_rate(k_load_bps * k_bursty / 3.0);
        }
        poisson.start();
        for (auto& b : bursts) b->start();
        sched.run_until(1.0);
        const net::link_stats& st = path.forward_link(0).stats();
        benchmark::DoNotOptimize(st.busy_time);
        offered += static_cast<std::int64_t>(st.enqueued + st.dropped);
    }
    state.SetItemsProcessed(offered);
}
BENCHMARK(bm_open_loop_second);

}  // namespace

BENCHMARK_MAIN();
