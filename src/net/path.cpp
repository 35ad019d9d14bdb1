#include "net/path.hpp"

#include <type_traits>
#include <utility>

#include "core/contracts.hpp"

namespace tcppred::net {

namespace {

/// Schedule one of the shared-link conduit's [this, packet] hops, which
/// every packet of a shared-link flow takes: it must stay inline.
template <typename F>
void hop(sim::scheduler& sched, double delay, F&& fn) {
    static_assert(sim::small_callback::fits_inline<std::decay_t<F>>,
                  "a conduit hop must not spill to the heap: grow k_inline_bytes");
    sched.schedule_in(delay, std::forward<F>(fn));
}

}  // namespace

duplex_path::duplex_path(sim::scheduler& sched, std::span<const hop_config> forward,
                         std::span<const hop_config> reverse)
    : sched_(&sched) {
    if (forward.empty() || reverse.empty()) {
        throw std::invalid_argument("duplex_path: need at least one hop per direction");
    }
    forward_.reserve(forward.size());
    for (std::size_t i = 0; i < forward.size(); ++i) {
        const auto& h = forward[i];
        forward_.push_back(std::make_unique<link>(sched, h.capacity.value(),
                                                  h.prop_delay.value(),
                                                  h.buffer_packets));
        base_rtt_ += h.prop_delay.value();
        if (h.capacity < forward[bottleneck_].capacity) bottleneck_ = i;
        forward_[i]->set_sink([this, i](packet p) { route_forward(i + 1, p); });
    }
    reverse_.reserve(reverse.size());
    for (std::size_t i = 0; i < reverse.size(); ++i) {
        const auto& h = reverse[i];
        reverse_.push_back(std::make_unique<link>(sched, h.capacity.value(),
                                                  h.prop_delay.value(),
                                                  h.buffer_packets));
        base_rtt_ += h.prop_delay.value();
        reverse_[i]->set_sink([this, i](packet p) { route_reverse(i + 1, p); });
    }
}

void duplex_path::inject_forward(std::size_t link_index, packet p) {
    const auto flow = static_cast<std::size_t>(p.flow);
    if (flow >= cross_members_.size()) {
        cross_members_.resize(flow + 1, k_not_cross);
    }
    cross_members_[flow] = link_index;
    // The packet leaves the path after this link. Without an exit handler
    // nothing receives it there, so the link schedules no delivery at all.
    forward_.at(link_index)->enqueue(p, cross_exits_.find(p.flow) != nullptr);
}

void duplex_path::route_forward(std::size_t link_index, packet p) {
    // Cross traffic leaves right after its shared link.
    if (link_index > 0) {
        const auto flow = static_cast<std::size_t>(p.flow);
        if (flow < cross_members_.size() && cross_members_[flow] == link_index - 1) {
            if (const delivery_handler* exit = cross_exits_.find(p.flow)) {
                (*exit)(p);
            }
            return;
        }
    }
    if (link_index < forward_.size()) {
        forward_[link_index]->enqueue(p);
        return;
    }
    deliver_forward(p);
}

void duplex_path::route_reverse(std::size_t link_index, packet p) {
    if (link_index < reverse_.size()) {
        reverse_[link_index]->enqueue(p);
        return;
    }
    deliver_reverse(p);
}

void duplex_path::deliver_forward(packet p) {
    if (const delivery_handler* h = forward_endpoints_.find(p.flow)) {
        (*h)(p);
    }
}

void duplex_path::deliver_reverse(packet p) {
    if (const delivery_handler* h = reverse_endpoints_.find(p.flow)) {
        (*h)(p);
    }
}

shared_link_conduit::shared_link_conduit(sim::scheduler& sched, duplex_path& path,
                                         std::size_t link_index, flow_id flow,
                                         core::seconds access_delay,
                                         core::seconds egress_delay,
                                         core::seconds ack_delay)
    : sched_(&sched),
      path_(&path),
      link_index_(link_index),
      flow_(flow),
      access_delay_(access_delay.value()),
      egress_delay_(egress_delay.value()),
      ack_delay_(ack_delay.value()) {
    TCPPRED_EXPECTS(access_delay_ >= 0.0 && egress_delay_ >= 0.0 && ack_delay_ >= 0.0);
    path_->on_cross_exit(flow_, [this](packet p) {
        hop(*sched_, egress_delay_, [this, p] {
            if (data_handler_) data_handler_(p);
        });
    });
}

void shared_link_conduit::send_data(packet p) {
    hop(*sched_, access_delay_, [this, p] { path_->inject_forward(link_index_, p); });
}

void shared_link_conduit::send_ack(packet p) {
    hop(*sched_, ack_delay_, [this, p] {
        if (ack_handler_) ack_handler_(p);
    });
}

void shared_link_conduit::on_deliver_data(flow_id, delivery_handler h) {
    data_handler_ = std::move(h);
}

void shared_link_conduit::on_deliver_ack(flow_id, delivery_handler h) {
    ack_handler_ = std::move(h);
}

}  // namespace tcppred::net
