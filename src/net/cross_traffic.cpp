#include "net/cross_traffic.hpp"

#include <limits>

#include "core/contracts.hpp"

namespace tcppred::net {

poisson_source::poisson_source(sim::scheduler& sched, duplex_path& path,
                               std::size_t link_index, flow_id /*flow*/, std::uint64_t seed,
                               double rate_bps, packet_size_mix mix, cross_model model)
    : sched_(&sched),
      link_(&path.forward_link(link_index)),
      rng_(seed),
      rate_bps_(rate_bps),
      mix_(mix),
      model_(model) {}

void poisson_source::start() {
    if (running_) return;
    running_ = true;
    if (model_ == cross_model::fluid) {
        // A Poisson aggregate is a constant-rate fluid: no events, ever.
        link_->add_fluid_rate(rate_bps_);
        return;
    }
    draw_next(sched_->now());
    link_->attach(*this);
}

void poisson_source::stop() {
    if (!running_) return;
    running_ = false;
    if (model_ == cross_model::fluid) {
        link_->add_fluid_rate(-rate_bps_);
    } else {
        link_->detach(*this);
    }
}

void poisson_source::set_rate(double rate_bps) {
    // The arrivals due so far were drawn at the old rate.
    link_->admit_due();
    if (running_ && model_ == cross_model::fluid) {
        link_->add_fluid_rate(rate_bps - rate_bps_);
    }
    rate_bps_ = rate_bps;
}

void poisson_source::draw_next(double from) {
    if (rate_bps_ <= 0.0) {
        // An idle source draws nothing more, even if its rate comes back.
        next_at_ = std::numeric_limits<double>::infinity();
        return;
    }
    const double mean_interarrival = mix_.mean_bytes() * 8.0 / rate_bps_;
    next_at_ = from + rng_.exponential(mean_interarrival);
    next_cause_ = from;
}

std::uint32_t poisson_source::take() {
    const std::uint32_t bytes = mix_.draw(rng_);
    draw_next(next_at_);
    return bytes;
}

pareto_onoff_source::pareto_onoff_source(sim::scheduler& sched, duplex_path& path,
                                         std::size_t link_index, flow_id /*flow*/,
                                         std::uint64_t seed, pareto_onoff_config cfg,
                                         cross_model model)
    : sched_(&sched),
      link_(&path.forward_link(link_index)),
      rng_(seed),
      cfg_(cfg),
      model_(model) {
    // A positive minimum ON length: every burst emits its first packet.
    TCPPRED_EXPECTS(cfg.mean_on_s > 0.0 && cfg.pareto_shape > 1.0);
}

void pareto_onoff_source::start() {
    if (running_) return;
    running_ = true;
    // Random initial OFF phase so concurrent sources don't synchronize.
    const double off = rng_.exponential(cfg_.mean_off_s);
    if (model_ == cross_model::fluid) {
        burst_event_ = sched_->schedule_in(off, [this] { begin_on_period(); });
        return;
    }
    const double now = sched_->now();
    next_at_ = now + off;
    next_cause_ = now;
    burst_start_ = true;
    link_->attach(*this);
}

void pareto_onoff_source::stop() {
    if (!running_) return;
    running_ = false;
    if (model_ == cross_model::fluid) {
        sched_->cancel(burst_event_);
        if (applied_rate_bps_ != 0.0) {
            link_->add_fluid_rate(-applied_rate_bps_);
            applied_rate_bps_ = 0.0;
        }
    } else {
        link_->detach(*this);
    }
}

void pareto_onoff_source::set_mean_rate(double rate_bps) {
    // The emissions due so far were spaced at the old peak rate.
    link_->admit_due();
    const double peak =
        rate_bps * (cfg_.mean_on_s + cfg_.mean_off_s) / cfg_.mean_on_s;
    if (applied_rate_bps_ != 0.0) {
        // Mid-ON-period rate change: re-apply the fluid delta immediately.
        link_->add_fluid_rate(peak - applied_rate_bps_);
        applied_rate_bps_ = peak;
    }
    cfg_.peak_rate_bps = peak;
}

double pareto_onoff_source::draw_on() {
    // Pareto with mean = mean_on_s: xmin = mean * (shape-1)/shape.
    const double xmin = cfg_.mean_on_s * (cfg_.pareto_shape - 1.0) / cfg_.pareto_shape;
    return rng_.pareto(cfg_.pareto_shape, xmin);
}

std::uint32_t pareto_onoff_source::take() {
    const double t = next_at_;
    if (burst_start_) {
        burst_until_ = t + draw_on();
        burst_start_ = false;
    }
    const double next = t + cfg_.packet_bytes * 8.0 / cfg_.peak_rate_bps;
    if (next >= burst_until_) {
        // The burst is over: the next one opens after an OFF period.
        next_at_ = next + rng_.exponential(cfg_.mean_off_s);
        next_cause_ = next;
        burst_start_ = true;
    } else {
        next_at_ = next;
        next_cause_ = t;
    }
    return cfg_.packet_bytes;
}

void pareto_onoff_source::begin_on_period() {
    // One burst = two events: rate up now, rate down at the burst end.
    const double on = draw_on();
    link_->add_fluid_rate(cfg_.peak_rate_bps);
    applied_rate_bps_ = cfg_.peak_rate_bps;
    burst_event_ = sched_->schedule_in(on, [this] { end_on_period(); });
}

void pareto_onoff_source::end_on_period() {
    if (applied_rate_bps_ != 0.0) {
        link_->add_fluid_rate(-applied_rate_bps_);
        applied_rate_bps_ = 0.0;
    }
    burst_event_ =
        sched_->schedule_in(rng_.exponential(cfg_.mean_off_s), [this] { begin_on_period(); });
}

}  // namespace tcppred::net
