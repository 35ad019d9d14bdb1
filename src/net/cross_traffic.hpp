// Unresponsive (open-loop) cross-traffic sources. They load a single queue
// of a path: the background load against which the target flow, the probes
// and the elastic flows compete. Their packets leave the path after that
// queue and nothing receives them.
#pragma once

#include <array>
#include <cstdint>

#include "net/link.hpp"
#include "net/path.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace tcppred::net {

/// How unresponsive cross traffic is realized at the shared queue.
///
///  - `packet`: every cross packet transits the link (exact drop-tail
///    interaction; the default, and the model all default goldens are
///    pinned against). A source is an `arrival_stream` of its link, which
///    admits each packet at its own instant: no packet costs an event.
///  - `fluid`: the aggregate is a piecewise-constant fluid rate applied to
///    the link (net::link::add_fluid_rate). Foreground packets wait behind
///    the fluid backlog and are dropped when packets + fluid overflow the
///    buffer, but no cross packets exist — a Poisson source costs zero
///    events, an on/off source two per burst cycle. It keeps the mean load
///    and its burst-scale modulation, not the jitter within a burst, and
///    prediction errors come out lower than under `packet`: DESIGN.md §13.5
///    for the measurement and the pinned goldens.
enum class cross_model {
    packet,
    fluid,
};

/// Empirical-style Internet packet size mix (40/576/1500 with the classic
/// trimodal weights). Gives the cross traffic realistic per-packet
/// granularity at the queue.
struct packet_size_mix {
    std::array<std::uint32_t, 3> sizes{40, 576, 1500};
    std::array<double, 3> weights{0.3, 0.2, 0.5};

    [[nodiscard]] double mean_bytes() const noexcept {
        double m = 0.0;
        for (std::size_t i = 0; i < sizes.size(); ++i) m += weights[i] * sizes[i];
        return m;
    }

    [[nodiscard]] std::uint32_t draw(sim::rng& r) const {
        double u = r.uniform();
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (u < weights[i]) return sizes[i];
            u -= weights[i];
        }
        return sizes.back();
    }
};

/// Poisson packet-arrival source at a configurable bit rate, loading
/// forward link `link_index` of the path. `flow` names the source in the
/// topology's flow plan; its packets have no exit delivery.
class poisson_source final : private arrival_stream {
public:
    poisson_source(sim::scheduler& sched, duplex_path& path, std::size_t link_index,
                   flow_id flow, std::uint64_t seed, double rate_bps,
                   packet_size_mix mix = {}, cross_model model = cross_model::packet);
    ~poisson_source() { stop(); }

    /// Begin emitting packets (idempotent). In fluid mode this applies the
    /// constant rate to the link instead — no events at all.
    void start();
    /// Stop emitting (already-queued packets still drain).
    void stop();
    /// Change the offered load. In packet mode the arrival already drawn
    /// keeps its instant: the new rate applies from the one after it. In
    /// fluid mode it applies at once.
    void set_rate(double rate_bps);
    [[nodiscard]] double rate_bps() const noexcept { return rate_bps_; }

private:
    /// Draws the packet's size, then the next arrival.
    std::uint32_t take() override;
    /// Draw the arrival after `from` at the current rate, caused by `from`.
    void draw_next(double from);

    sim::scheduler* sched_;
    link* link_;
    sim::rng rng_;
    double rate_bps_;
    packet_size_mix mix_;
    cross_model model_;
    bool running_{false};
};

/// Parameters of a Pareto on/off source: heavy-tailed ON periods at a fixed
/// peak rate, exponential OFF periods. The standard model for bursty,
/// LRD-like background traffic; its mean rate is peak * on/(on+off).
struct pareto_onoff_config {
    double peak_rate_bps{4e6};
    double mean_on_s{0.20};
    double mean_off_s{0.30};
    double pareto_shape{1.9};  ///< ON-period tail index (1,2] = very bursty
    std::uint32_t packet_bytes{1500};
};

/// On/off source loading forward link `link_index` of the path; `flow` as
/// for `poisson_source`. In packet mode a burst emits `packet_bytes`
/// packets at the peak rate's spacing; in fluid mode it is the peak rate
/// applied to the link for the burst's length (two events per burst).
class pareto_onoff_source final : private arrival_stream {
public:
    pareto_onoff_source(sim::scheduler& sched, duplex_path& path, std::size_t link_index,
                        flow_id flow, std::uint64_t seed, pareto_onoff_config cfg,
                        cross_model model = cross_model::packet);
    ~pareto_onoff_source() { stop(); }

    void start();
    /// Stop emitting: a pending burst start or burst end is cancelled.
    void stop();

    /// Scale the peak rate so the mean offered rate equals `rate_bps`. In
    /// packet mode the emission already drawn keeps its instant: the new
    /// spacing applies from the one after it. In fluid mode a burst in
    /// progress changes its rate at once.
    void set_mean_rate(double rate_bps);

private:
    /// Draws the ON length at a burst's first packet, then the next
    /// emission; at the burst's end, the OFF length before the next burst.
    std::uint32_t take() override;
    /// Draw an ON length (Pareto with mean `mean_on_s`).
    [[nodiscard]] double draw_on();
    // Fluid mode: the burst's two events.
    void begin_on_period();
    void end_on_period();

    sim::scheduler* sched_;
    link* link_;
    sim::rng rng_;
    pareto_onoff_config cfg_;
    cross_model model_;
    bool running_{false};
    bool burst_start_{false};  ///< packet mode: the next arrival opens a burst
    double burst_until_{0.0};  ///< packet mode: the current burst's end
    double applied_rate_bps_{0.0};  ///< fluid rate currently on the link
    sim::event_handle burst_event_;  ///< fluid mode: the pending start or end
};

}  // namespace tcppred::net
