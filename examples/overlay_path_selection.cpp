// Overlay path selection (the RON use case that motivates the paper):
// three candidate overlay paths lead to the same destination; before each
// bulk transfer the application predicts the throughput of every path from
// its transfer history (HB, Holt-Winters + LSO) — falling back to the
// formula-based predictor while a path has no history — and routes the
// transfer over the best-predicted path.
//
// Prints the achieved throughput of the predictive policy against an
// oracle (best path each round) and a static policy (always path 0).
//
// Build & run:  ./build/examples/overlay_path_selection
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/predictor_registry.hpp"
#include "net/cross_traffic.hpp"
#include "net/path.hpp"
#include "probe/bulk_transfer.hpp"
#include "probe/ping_prober.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

using namespace tcppred;

namespace {

/// One candidate overlay path plus its background load and its predictor.
struct candidate {
    std::unique_ptr<net::duplex_path> path;
    std::unique_ptr<net::poisson_source> cross;
    std::unique_ptr<core::predictor> history;
    double capacity_bps{0};
    net::flow_id next_flow{1000};
};

double run_transfer(sim::scheduler& sched, candidate& c, double duration) {
    net::path_conduit conduit(*c.path);
    tcp::tcp_config cfg;
    cfg.initial_ssthresh_segments = 128;
    probe::bulk_transfer xfer(sched, conduit, c.next_flow++, core::seconds{duration},
                              cfg);
    xfer.start();
    while (!xfer.done()) sched.step();
    return xfer.result().goodput().value();
}

double fb_cold_start(sim::scheduler& sched, candidate& c) {
    probe::ping_config pc;
    pc.count = 200;
    probe::ping_prober pinger(sched, *c.path, c.next_flow++, pc);
    pinger.start();
    while (!pinger.done()) sched.step();
    core::path_measurement m;
    m.rtt = pinger.result().mean_rtt();
    m.loss_rate = pinger.result().loss_rate();
    m.avail_bw = core::bits_per_second{0.0};  // no avail-bw probe: window bound fallback
    return core::make_predictor("fb:pftk")
        ->predict(core::epoch_inputs::valid(m))
        .value_bps;
}

}  // namespace

int main() {
    std::printf("overlay path selection with TCP throughput prediction\n\n");

    sim::scheduler sched;
    sim::rng rng(2024);

    // Three overlay paths with different capacities, RTTs and (drifting)
    // background loads.
    std::vector<candidate> paths;
    const double caps[] = {10e6, 12e6, 8e6};
    const double rtts[] = {0.030, 0.090, 0.050};
    const double loads[] = {0.55, 0.25, 0.40};
    for (int i = 0; i < 3; ++i) {
        candidate c;
        std::vector<net::hop_config> fwd{net::hop_config{
            core::bits_per_second{caps[i]}, core::seconds{rtts[i] / 2}, 80}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{rtts[i] / 2}, 512}};
        c.path = std::make_unique<net::duplex_path>(sched, fwd, rev);
        c.cross = std::make_unique<net::poisson_source>(
            sched, *c.path, 0, 9000 + static_cast<net::flow_id>(i),
            sim::derive_seed(7, "cross", static_cast<std::uint64_t>(i)),
            loads[i] * caps[i]);
        c.cross->start();
        c.history = core::make_predictor("0.8-HW-LSO");
        c.capacity_bps = caps[i];
        c.next_flow = 1000 + static_cast<net::flow_id>(i) * 1000;
        paths.push_back(std::move(c));
    }
    sched.run_until(2.0);

    double chosen_sum = 0, oracle_sum = 0, static_sum = 0;
    std::printf("%-6s %12s %12s %12s %8s %12s\n", "round", "pred p0", "pred p1", "pred p2",
                "chosen", "achieved");
    const int rounds = 12;
    for (int round = 0; round < rounds; ++round) {
        // Occasionally the background load changes (level shifts).
        if (round == 6) paths[1].cross->set_rate(0.75 * paths[1].capacity_bps);

        // Predict each path: HB once history exists, FB before that.
        std::vector<double> preds;
        for (auto& c : paths) {
            const core::prediction hb = c.history->predict(core::epoch_inputs::absent());
            preds.push_back(hb.usable() ? hb.value_bps : fb_cold_start(sched, c));
        }
        int best = 0;
        for (int i = 1; i < 3; ++i) {
            if (preds[i] > preds[best]) best = i;
        }

        // Measure ALL paths this round (so the oracle and the histories are
        // well defined); only the chosen path's result counts for the policy.
        std::vector<double> achieved;
        for (auto& c : paths) achieved.push_back(run_transfer(sched, c, 6.0));
        for (std::size_t i = 0; i < paths.size(); ++i) {
            paths[i].history->observe(achieved[i]);
        }

        chosen_sum += achieved[static_cast<std::size_t>(best)];
        oracle_sum += *std::max_element(achieved.begin(), achieved.end());
        static_sum += achieved[0];
        std::printf("%-6d %12.2f %12.2f %12.2f %8d %12.2f\n", round, preds[0] / 1e6,
                    preds[1] / 1e6, preds[2] / 1e6, best,
                    achieved[static_cast<std::size_t>(best)] / 1e6);
        sched.run_until(sched.now() + 3.0);
    }

    std::printf("\nmean achieved throughput over %d rounds:\n", rounds);
    std::printf("  predictive policy: %.2f Mbps\n", chosen_sum / rounds / 1e6);
    std::printf("  oracle (hindsight): %.2f Mbps\n", oracle_sum / rounds / 1e6);
    std::printf("  static path 0:      %.2f Mbps\n", static_sum / rounds / 1e6);
    return 0;
}
