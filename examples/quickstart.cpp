// Quickstart: predict the throughput of a bulk TCP transfer on a simulated
// path, first formula-based (measure the path, apply Eq. 3), then
// history-based (forecast from previous transfers), and compare both with
// what the transfer actually achieves.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/metrics.hpp"
#include "core/predictor_registry.hpp"
#include "net/cross_traffic.hpp"
#include "net/path.hpp"
#include "probe/bulk_transfer.hpp"
#include "probe/pathload.hpp"
#include "probe/ping_prober.hpp"
#include "sim/scheduler.hpp"

using namespace tcppred;

int main() {
    std::printf("tcppred quickstart: predicting large-transfer TCP throughput\n\n");

    // --- 1. A simulated Internet path: 10 Mbps bottleneck, 60 ms RTT, and
    //        ~40%% background load.
    sim::scheduler sched;
    std::vector<net::hop_config> fwd{
        net::hop_config{core::bits_per_second{100e6}, core::seconds{0.006}, 512},
        net::hop_config{core::bits_per_second{10e6}, core::seconds{0.018}, 60},
        net::hop_config{core::bits_per_second{100e6}, core::seconds{0.006}, 512}};
    std::vector<net::hop_config> rev{net::hop_config{
        core::bits_per_second{100e6}, core::seconds{0.030}, 512}};
    net::duplex_path path(sched, fwd, rev);
    net::poisson_source cross(sched, path, 1, /*flow=*/99, /*seed=*/7, 4e6);
    cross.start();
    sched.run_until(2.0);  // warm up the background load

    // --- 2. Formula-based prediction: measure avail-bw, RTT and loss rate
    //        non-intrusively, then apply Eq. 3 of the paper.
    probe::pathload_config plc;
    plc.max_rate = core::bits_per_second{13e6};
    probe::pathload availbw(sched, path, /*flow=*/2, plc);
    availbw.start();
    while (!availbw.done()) sched.step();

    probe::ping_prober pinger(sched, path, /*flow=*/3, probe::ping_config{});
    pinger.start();
    while (!pinger.done()) sched.step();

    core::path_measurement meas;
    meas.avail_bw = availbw.result().estimate();
    meas.rtt = pinger.result().mean_rtt();
    meas.loss_rate = pinger.result().loss_rate();
    std::printf("measured a priori: avail-bw %.2f Mbps, RTT %.1f ms, loss %.4f\n",
                meas.avail_bw.value() / 1e6, meas.rtt.value() * 1e3,
                meas.loss_rate.value());

    // Both predictor families come from the registry (MSS 1460 and b = 2
    // fixed; W = 1 MB by default, core::predictor_config::window_bytes to
    // change it).
    const auto fb_pred = core::make_predictor("fb:pftk");
    const core::prediction fb = fb_pred->predict(core::epoch_inputs::valid(meas));
    std::printf("FB prediction (Eq. 3): %.2f Mbps  [branch: %s]\n\n",
                fb.value_bps / 1e6,
                fb.inputs_used.source == core::prediction_source::model_based
                    ? "PFTK on (T^, p^)"
                : fb.inputs_used.source == core::prediction_source::avail_bw
                    ? "avail-bw"
                    : "window bound W/T^");

    // --- 3. Run repeated bulk transfers; feed each observation to an
    //        HB predictor (Holt-Winters wrapped with the LSO heuristics)
    //        and forecast the next transfer one step ahead.
    const auto hb = core::make_predictor("0.8-HW-LSO");
    tcp::tcp_config tcp_cfg;
    tcp_cfg.initial_ssthresh_segments = 128;

    std::printf("%-6s %14s %14s %14s %10s\n", "run", "FB pred Mbps", "HB pred Mbps",
                "actual Mbps", "HB error");
    for (int run = 0; run < 8; ++run) {
        const core::prediction hb_forecast = hb->predict(core::epoch_inputs::absent());

        net::path_conduit conduit(path);
        probe::bulk_transfer xfer(sched, conduit, /*flow=*/100 + run,
                                  /*duration=*/core::seconds{10.0}, tcp_cfg);
        xfer.start();
        while (!xfer.done()) sched.step();
        const double actual = xfer.result().goodput().value();

        std::printf("%-6d %14.2f", run, fb.value_bps / 1e6);
        if (hb_forecast.usable()) {
            std::printf(" %14.2f %14.2f %+9.2f\n", hb_forecast.value_bps / 1e6,
                        actual / 1e6, core::relative_error(hb_forecast.value_bps, actual));
        } else {
            std::printf(" %14s %14.2f %10s\n", "(no history)", actual / 1e6, "-");
        }
        hb->observe(actual);
        sched.run_until(sched.now() + 5.0);  // idle gap between transfers
    }

    std::printf("\ntakeaway: with even a short history the HB forecast tracks the "
                "achieved throughput; the FB prediction is only as good as the a-priori "
                "measurements (see bench/fig02* and the paper's Section 4).\n");
    return 0;
}
