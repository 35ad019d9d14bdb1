// §4.2.7 ablation: the Cardwell slow-start model E[d_ss] and the
// short-transfer FB extension, validated against simulated short transfers
// on a clean path (the regime where the model's assumptions hold).
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/fb_formulas.hpp"
#include "net/path.hpp"
#include "probe/bulk_transfer.hpp"
#include "sim/scheduler.hpp"

using namespace tcppred;
using namespace tcppred::bench;

namespace {

/// Goodput of a `segments`-long transfer on a clean path with the given
/// Bernoulli random loss.
double simulate_short_transfer(double loss, std::uint64_t segments) {
    sim::scheduler sched;
    std::vector<net::hop_config> fwd{net::hop_config{
        core::bits_per_second{50e6}, core::seconds{0.040}, 256}};
    std::vector<net::hop_config> rev{net::hop_config{
        core::bits_per_second{100e6}, core::seconds{0.040}, 256}};
    net::duplex_path path(sched, fwd, rev);
    if (loss > 0) path.forward_link(0).set_random_loss(loss, 99);
    net::path_conduit conduit(path);

    tcp::tcp_config cfg;
    tcp::tcp_connection conn(sched, conduit, 1, cfg);
    conn.start();
    double done_at = 0.0;
    // Run until the requested number of segments is delivered.
    while (conn.sender().stats().segments_delivered < segments && sched.now() < 300.0) {
        if (!sched.step()) break;
        done_at = sched.now();
    }
    conn.quiesce();
    const double bytes = static_cast<double>(conn.sender().stats().segments_delivered) *
                         core::k_mss_bytes;
    return done_at > 0 ? bytes * 8.0 / done_at : 0.0;
}

}  // namespace

int main() {
    banner("Ablation (s4.2.7): slow-start share and the short-transfer FB extension",
           "E[d_ss] = (1-(1-p)^d)(1-p)/p + 1 segments ride the initial slow start; short "
           "transfers need a slow-start-aware predictor (Cardwell / Arlitt et al.)");

    core::tcp_flow_params flow;
    const double rtt = 0.080, t0 = 1.0;

    std::printf("%-10s %-12s %-18s %-20s %-16s\n", "d (segs)", "p", "E[d_ss] (model)",
                "short-model (Mbps)", "simulated (Mbps)");
    for (const double p : {0.001, 0.01}) {
        for (const std::uint64_t d : {50ull, 200ull, 1000ull, 5000ull}) {
            const double dss = core::expected_slow_start_segments(
                core::probability{p}, static_cast<double>(d));
            const double model =
                core::short_transfer_throughput(flow, core::seconds{rtt},
                                                core::probability{p}, core::seconds{t0},
                                                static_cast<double>(d))
                    .value();
            const double sim = simulate_short_transfer(p, d);
            std::printf("%-10llu %-12.3f %-18.1f %-20.2f %-16.2f\n",
                        static_cast<unsigned long long>(d), p, dss, model / 1e6, sim / 1e6);
        }
    }
    std::printf("\n(shape check: throughput grows with transfer length while slow start "
                "dominates, and the steady-state limit matches PFTK; the simulated path "
                "uses the same RTT but its own RTO/delack timing, so absolute values "
                "differ)\n");
    return 0;
}
