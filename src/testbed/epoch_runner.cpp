#include "testbed/epoch_runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string_view>

#include "core/loss_events.hpp"
#include "net/cross_traffic.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "probe/bulk_transfer.hpp"
#include "probe/pathload.hpp"
#include "sim/rng.hpp"

namespace tcppred::testbed {

namespace {

// Fixed flow-id plan within an epoch's private world.
constexpr net::flow_id k_flow_target = 1;
constexpr net::flow_id k_flow_small = 2;
constexpr net::flow_id k_flow_ping_prior = 3;
constexpr net::flow_id k_flow_ping_during = 4;
constexpr net::flow_id k_flow_pathload = 5;
constexpr net::flow_id k_flow_poisson = 10;
constexpr net::flow_id k_flow_pareto = 11;
constexpr net::flow_id k_flow_elastic_base = 100;

/// pathload's search upper bound as a multiple of the bottleneck capacity.
constexpr double k_pathload_max_rate_factor = 1.3;
/// Watchdog on an epoch's simulated time.
constexpr double k_hard_cap_s = 240.0;

/// The per-epoch simulation world: topology, background traffic and
/// measurement tools, sequenced through the Fig. 1 phases by callbacks.
class epoch_world {
public:
    epoch_world(const path_profile& profile, const load_state& load, std::uint64_t seed,
                const epoch_config& cfg, const sim::epoch_fault_plan& faults)
        : profile_(profile), load_(load), cfg_(cfg), faults_(faults),
          path_(sched_, profile.forward, profile.reverse) {
        if (profile.random_loss_rate > 0.0) {
            path_.bottleneck().set_random_loss(profile.random_loss_rate,
                                               sim::derive_seed(seed, "randloss"),
                                               profile.loss_burst_s);
        }
        build_cross_traffic(seed);
        build_tools();
    }

    epoch_measurement run();

private:
    void build_cross_traffic(std::uint64_t seed);
    void build_tools();
    std::unique_ptr<probe::ping_prober> make_ping(net::flow_id flow, std::uint64_t count,
                                                  std::string_view stream,
                                                  double truncate_fraction);
    void start_pathload();
    void start_prior_ping();
    void start_transfer_phase();
    void collect_during_view_and_continue();
    void start_small_transfer();

    const path_profile& profile_;
    const load_state& load_;
    const epoch_config& cfg_;
    const sim::epoch_fault_plan& faults_;

    sim::scheduler sched_;
    net::duplex_path path_;
    std::unique_ptr<net::path_conduit> target_conduit_;
    std::unique_ptr<net::path_conduit> small_conduit_;

    std::unique_ptr<net::poisson_source> poisson_;
    std::vector<std::unique_ptr<net::pareto_onoff_source>> pareto_;
    std::vector<std::unique_ptr<net::shared_link_conduit>> elastic_conduits_;
    std::vector<std::unique_ptr<tcp::tcp_connection>> elastic_flows_;

    std::unique_ptr<probe::pathload> pathload_;
    std::unique_ptr<probe::ping_prober> prior_ping_;
    std::unique_ptr<probe::ping_prober> during_ping_;
    std::unique_ptr<probe::bulk_transfer> target_transfer_;
    std::unique_ptr<probe::bulk_transfer> small_transfer_;

    epoch_measurement out_{};
    bool finished_{false};
};

void epoch_world::build_cross_traffic(std::uint64_t seed) {
    const double cap = profile_.bottleneck_capacity().value();
    const std::size_t bn = profile_.bottleneck;
    const double open_loop_bps = load_.utilization * cap;

    const net::packet_size_mix mix{};
    poisson_ = std::make_unique<net::poisson_source>(
        sched_, path_, bn, k_flow_poisson, sim::derive_seed(seed, "poisson"),
        open_loop_bps * (1.0 - profile_.burstiness), mix, cfg_.cross);
    // The bursty share is an aggregate of a few independent on/off sources:
    // statistical multiplexing keeps single-burst amplitude realistic.
    constexpr int k_onoff_sources = 3;
    net::pareto_onoff_config pcfg0;
    for (int i = 0; i < k_onoff_sources; ++i) {
        net::pareto_onoff_config pcfg;
        pareto_.push_back(std::make_unique<net::pareto_onoff_source>(
            sched_, path_, bn, k_flow_pareto + static_cast<net::flow_id>(i),
            sim::derive_seed(seed, "pareto", static_cast<std::uint64_t>(i)), pcfg,
            cfg_.cross));
        pareto_.back()->set_mean_rate(open_loop_bps * profile_.burstiness /
                                      k_onoff_sources);
    }
    if (cfg_.cross == net::cross_model::fluid) {
        // Buffer-occupancy conversion for the fluid aggregate: mean packet
        // size blended across the Poisson mix and the on/off sources' MTU
        // packets, weighted by their shares of the open-loop load.
        const double blended = (1.0 - profile_.burstiness) * mix.mean_bytes() +
                               profile_.burstiness *
                                   static_cast<double>(pcfg0.packet_bytes);
        path_.forward_link(bn).set_fluid_mean_packet_bytes(blended);
    }

    sim::rng er(sim::derive_seed(seed, "elastic"));
    for (int i = 0; i < load_.elastic_flows; ++i) {
        const double rtt = profile_.elastic_rtt_s * er.uniform(0.7, 1.3);
        const net::flow_id id = k_flow_elastic_base + static_cast<net::flow_id>(i);
        elastic_conduits_.push_back(std::make_unique<net::shared_link_conduit>(
            sched_, path_, bn, id, core::seconds{rtt * 0.25}, core::seconds{rtt * 0.25},
            core::seconds{rtt * 0.5}));
        tcp::tcp_config ecfg = cfg_.tcp;
        ecfg.max_window_bytes = profile_.elastic_window_bytes;
        elastic_flows_.push_back(std::make_unique<tcp::tcp_connection>(
            sched_, *elastic_conduits_.back(), id, ecfg));
        // Staggered starts so the elastic population does not slow-start in
        // lockstep.
        const double start_at = er.uniform(0.0, cfg_.warmup.value() * 0.5);
        auto* conn = elastic_flows_.back().get();
        sched_.schedule_in(start_at, [conn] { conn->start(); });
    }

    poisson_->start();
    for (auto& src : pareto_) src->start();
}

void epoch_world::build_tools() {
    probe::pathload_config plc;
    plc.max_rate = core::bits_per_second{profile_.bottleneck_capacity().value() *
                                        k_pathload_max_rate_factor};
    plc.fault_nonconvergence = faults_.pathload_fail;
    pathload_ = std::make_unique<probe::pathload>(sched_, path_, k_flow_pathload, plc);

    prior_ping_ = make_ping(k_flow_ping_prior, cfg_.prior_ping.count, "prior",
                            faults_.ping_truncate_fraction);
    // The during-flow session probes for the whole transfer and is never
    // truncated.
    during_ping_ = make_ping(k_flow_ping_during,
                             static_cast<std::uint64_t>(cfg_.transfer.value() /
                                                        cfg_.prior_ping.interval.value()),
                             "during", 1.0);

    target_conduit_ = std::make_unique<net::path_conduit>(path_);
    tcp::tcp_config big = cfg_.tcp;
    big.max_window_bytes = core::k_target_window_bytes;
    target_transfer_ = std::make_unique<probe::bulk_transfer>(
        sched_, *target_conduit_, k_flow_target, cfg_.transfer, big);
    if (faults_.transfer_abort_fraction < 1.0) {
        target_transfer_->set_fault_abort(cfg_.transfer *
                                          faults_.transfer_abort_fraction);
    }
    if (!cfg_.prefix_s.empty()) target_transfer_->add_prefix_checkpoints(cfg_.prefix_s);

    if (cfg_.run_small_window) {
        small_conduit_ = std::make_unique<net::path_conduit>(path_);
        tcp::tcp_config small = cfg_.tcp;
        small.max_window_bytes = core::k_companion_window_bytes;
        small_transfer_ = std::make_unique<probe::bulk_transfer>(
            sched_, *small_conduit_, k_flow_small, cfg_.transfer, small);
    }
}

/// A ping session of `count` probes at the epoch's interval. Its faults come
/// from the plan alone: the plan's per-probe timeout rate on the session's
/// own `stream`, and when `truncate_fraction` < 1 an end after that share of
/// the probes.
std::unique_ptr<probe::ping_prober> epoch_world::make_ping(net::flow_id flow,
                                                           std::uint64_t count,
                                                           std::string_view stream,
                                                           double truncate_fraction) {
    probe::ping_config pc = cfg_.prior_ping;
    pc.count = count;
    probe::ping_faults pf;
    pf.timeout_rate = faults_.ping_timeout_rate;
    pf.seed = sim::derive_seed(faults_.ping_fault_seed, stream);
    if (truncate_fraction < 1.0) {
        pf.truncate_at =
            static_cast<std::uint64_t>(static_cast<double>(count) * truncate_fraction);
    }
    return std::make_unique<probe::ping_prober>(sched_, path_, flow, pc, pf);
}

void epoch_world::start_pathload() {
    if (!cfg_.run_pathload) {
        start_prior_ping();
        return;
    }
    pathload_->start([this](const probe::pathload_result& r) {
        // The plan's non-convergence is the one way pathload fails.
        if (faults_.pathload_fail) {
            out_.avail_bw_bps = std::numeric_limits<double>::quiet_NaN();
            out_.fault_flags |= fault_pathload_failed;
        } else {
            out_.avail_bw_bps = r.estimate().value();
        }
        start_prior_ping();
    });
}

void epoch_world::start_prior_ping() {
    prior_ping_->start([this](const probe::ping_result& r) {
        if (r.received > 0) {
            out_.phat = r.loss_rate().value();
            out_.phat_events = core::loss_event_rate(r.outcomes);
            out_.that_s = r.mean_rtt().value();
        } else {
            // Every probe lost: there is no RTT sample and the loss estimate
            // carries no signal either.
            out_.phat = std::numeric_limits<double>::quiet_NaN();
            out_.phat_events = std::numeric_limits<double>::quiet_NaN();
            out_.that_s = std::numeric_limits<double>::quiet_NaN();
        }
        if (r.injected_timeouts > 0) out_.fault_flags |= fault_ping_degraded;
        if (r.truncated) out_.fault_flags |= fault_ping_partial;
        start_transfer_phase();
    });
}

void epoch_world::start_transfer_phase() {
    if (load_.intra_epoch_drift != 1.0) {
        // The background load has drifted since the a-priori measurements.
        const double cap = profile_.bottleneck_capacity().value();
        const double drifted = std::min(load_.utilization * load_.intra_epoch_drift, 0.95);
        poisson_->set_rate(drifted * cap * (1.0 - profile_.burstiness));
        for (auto& src : pareto_) {
            src->set_mean_rate(drifted * cap * profile_.burstiness /
                               static_cast<double>(pareto_.size()));
        }
    }
    if (faults_.outage) {
        // Transient blackout inside the transfer window, deterministic in
        // absolute sim time (no RNG draws at enqueue time; see link.hpp).
        const double t0 = sched_.now();
        const double from = t0 + faults_.outage_start_fraction * cfg_.transfer.value();
        const double until = from + faults_.outage_duration_fraction *
                                        cfg_.transfer.value();
        path_.bottleneck().set_outage(from, until);
        out_.fault_flags |= fault_path_outage;
    }
    during_ping_->start();
    target_transfer_->start([this](const probe::transfer_result& r) {
        if (r.aborted) out_.fault_flags |= fault_transfer_aborted;
        out_.r_large_bps = r.goodput().value();
        for (const auto& pg : r.prefix_goodput_bps) out_.prefix_goodputs.push_back(pg);
        const auto& st = r.tcp_stats;
        if (st.segments_sent > 0) {
            out_.tcp_loss_rate = static_cast<double>(st.retransmits) /
                                 static_cast<double>(st.segments_sent);
            out_.tcp_event_rate = static_cast<double>(st.congestion_events()) /
                                  static_cast<double>(st.segments_sent);
        }
        if (!st.rtt_samples.empty()) {
            double s = 0.0;
            for (const double x : st.rtt_samples) s += x;
            out_.tcp_mean_rtt_s = s / static_cast<double>(st.rtt_samples.size());
        }
        collect_during_view_and_continue();
    });
}

void epoch_world::collect_during_view_and_continue() {
    // Give the last concurrent probes their full reply-timeout before
    // reading the during-flow loss/RTT view.
    const double grace = probe::k_ping_reply_timeout.value() + 0.1;
    sched_.schedule_in(grace, [this] {
        const probe::ping_result& r = during_ping_->result();
        if (r.received > 0) {
            out_.ptilde = r.loss_rate().value();
            out_.ttilde_s = r.mean_rtt().value();
        } else {
            out_.ptilde = std::numeric_limits<double>::quiet_NaN();
            out_.ttilde_s = std::numeric_limits<double>::quiet_NaN();
        }
        if (cfg_.run_small_window) {
            start_small_transfer();
        } else {
            finished_ = true;
        }
    });
}

void epoch_world::start_small_transfer() {
    small_transfer_->start([this](const probe::transfer_result& r) {
        out_.r_small_bps = r.goodput().value();
        finished_ = true;
    });
}

epoch_measurement epoch_world::run() {
    sched_.schedule_in(cfg_.warmup.value(), [this] { start_pathload(); });
    while (!finished_ && sched_.now() < k_hard_cap_s) {
        if (!sched_.step()) break;
    }
    out_.sim_time_s = sched_.now();
    out_.events = sched_.fired();
    return out_;
}

}  // namespace

epoch_measurement run_epoch(const path_profile& profile, const load_state& load,
                            std::uint64_t seed, const epoch_config& cfg,
                            const sim::epoch_fault_plan& faults) {
    const obs::stage_timer timer("testbed.run_epoch");
    epoch_world world(profile, load, seed, cfg, faults);
    const epoch_measurement m = world.run();

    static const obs::counter c_epochs = obs::counter::get("testbed.epochs_simulated");
    static const obs::counter c_events = obs::counter::get("testbed.sim_events");
    c_epochs.add();
    c_events.add(m.events);
    if (m.fault_flags != 0) {
        // One counter per fault: the epochs whose record carries its flag.
        static const obs::counter c_pathload =
            obs::counter::get("testbed.faults.pathload_failed");
        static const obs::counter c_ping_deg =
            obs::counter::get("testbed.faults.ping_degraded");
        static const obs::counter c_ping_part =
            obs::counter::get("testbed.faults.ping_partial");
        static const obs::counter c_aborted =
            obs::counter::get("testbed.faults.transfer_aborted");
        static const obs::counter c_outage =
            obs::counter::get("testbed.faults.path_outage");
        if ((m.fault_flags & fault_pathload_failed) != 0) c_pathload.add();
        if ((m.fault_flags & fault_ping_degraded) != 0) c_ping_deg.add();
        if ((m.fault_flags & fault_ping_partial) != 0) c_ping_part.add();
        if ((m.fault_flags & fault_transfer_aborted) != 0) c_aborted.add();
        if ((m.fault_flags & fault_path_outage) != 0) c_outage.add();
    }
    return m;
}

}  // namespace tcppred::testbed
