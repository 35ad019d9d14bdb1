// A duplex end-to-end path: a chain of forward links (data direction), a
// chain of reverse links (ACK direction), per-flow delivery demux at both
// ends, and hooks for cross traffic that shares only part of the path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/units.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace tcppred::net {

/// Static description of one hop of a path. Capacity and delay carry their
/// units in the type, so swapping them at a construction site is a compile
/// error (tests/compile_fail/); the packet-level hot path below this
/// boundary runs on raw doubles.
struct hop_config {
    core::bits_per_second capacity{10e6};
    core::seconds prop_delay{0.010};
    std::size_t buffer_packets{64};
};

/// Delivery callback for packets reaching an endpoint.
using delivery_handler = std::function<void(packet)>;

/// Flat per-flow handler table. Flow ids are small dense integers allocated
/// by the world that builds the topology (testbed plan: 1..5 for tools,
/// 10..13 for open-loop cross traffic, 100+ for elastic flows), so a
/// direct-indexed vector replaces the hash map on the per-packet delivery
/// path. Registration grows the table; lookup is a bounds check + load.
class flow_table {
public:
    void set(flow_id flow, delivery_handler h) {
        if (flow >= slots_.size()) {
            if (!h) return;  // unregistering a never-registered flow
            slots_.resize(static_cast<std::size_t>(flow) + 1);
        }
        slots_[static_cast<std::size_t>(flow)] = std::move(h);
    }

    /// Handler for `flow`, or nullptr when none is registered.
    [[nodiscard]] const delivery_handler* find(flow_id flow) const noexcept {
        if (flow >= slots_.size()) return nullptr;
        const delivery_handler& h = slots_[static_cast<std::size_t>(flow)];
        return h ? &h : nullptr;
    }

private:
    std::vector<delivery_handler> slots_;
};

/// Duplex multi-hop path.
///
/// End-to-end flows enter with `send_forward`/`send_reverse` and are
/// delivered to the handler registered for their flow id at the opposite
/// end. Elastic cross traffic that shares only one queue is injected with
/// `inject_forward(link_index, packet)` and *exits* the path right after
/// that link (one-hop cross traffic, the classic congestion setup), where
/// its exit handler receives it to close the flow's control loop. Open-loop
/// sources (net/cross_traffic.hpp) load their link as arrival streams
/// instead and have no exit.
class duplex_path {
public:
    duplex_path(sim::scheduler& sched, std::span<const hop_config> forward,
                std::span<const hop_config> reverse);

    duplex_path(const duplex_path&) = delete;
    duplex_path& operator=(const duplex_path&) = delete;

    /// Inject a packet at the head of the forward (data) direction.
    void send_forward(packet p) { route_forward(0, p); }
    /// Inject a packet at the head of the reverse (ACK) direction.
    void send_reverse(packet p) { route_reverse(0, p); }

    /// Register the destination-side delivery handler for `flow`; a null
    /// handler unregisters (late packets are then silently dropped).
    void on_deliver_forward(flow_id flow, delivery_handler h) {
        forward_endpoints_.set(flow, std::move(h));
    }
    /// Register the source-side delivery handler for `flow`; null unregisters.
    void on_deliver_reverse(flow_id flow, delivery_handler h) {
        reverse_endpoints_.set(flow, std::move(h));
    }

    /// Inject cross traffic directly into forward link `link_index`.
    void inject_forward(std::size_t link_index, packet p);

    /// Register where cross-traffic flow `flow`, injected at `link_index`,
    /// goes after transiting that link: `shared_link_conduit` registers its
    /// elastic flow here. Without a handler an injected packet is silently
    /// sunk at its departure and costs no event; the handler in place at
    /// injection decides. Open-loop sources inject nothing.
    void on_cross_exit(flow_id flow, delivery_handler h) {
        cross_exits_.set(flow, std::move(h));
    }

    [[nodiscard]] std::size_t forward_hops() const noexcept { return forward_.size(); }
    [[nodiscard]] std::size_t reverse_hops() const noexcept { return reverse_.size(); }
    [[nodiscard]] link& forward_link(std::size_t i) { return *forward_.at(i); }
    [[nodiscard]] link& reverse_link(std::size_t i) { return *reverse_.at(i); }
    [[nodiscard]] const link& forward_link(std::size_t i) const { return *forward_.at(i); }

    /// Index of the minimum-capacity forward link.
    [[nodiscard]] std::size_t bottleneck_index() const noexcept { return bottleneck_; }
    [[nodiscard]] link& bottleneck() { return *forward_[bottleneck_]; }

    /// Sum of forward+reverse propagation delays: the no-load RTT floor
    /// (excluding serialization).
    [[nodiscard]] core::seconds base_rtt() const noexcept {
        return core::seconds{base_rtt_};
    }

private:
    void route_forward(std::size_t link_index, packet p);
    void route_reverse(std::size_t link_index, packet p);
    void deliver_forward(packet p);
    void deliver_reverse(packet p);

    sim::scheduler* sched_;
    std::vector<std::unique_ptr<link>> forward_;
    std::vector<std::unique_ptr<link>> reverse_;
    static constexpr std::size_t k_not_cross = static_cast<std::size_t>(-1);

    flow_table forward_endpoints_;
    flow_table reverse_endpoints_;
    flow_table cross_exits_;
    std::vector<std::size_t> cross_members_;  ///< flow -> exit-after index (k_not_cross: end-to-end)
    std::size_t bottleneck_{0};
    double base_rtt_{0.0};
};

/// Abstract transport used by TCP endpoints, so the same TCP code drives the
/// measured end-to-end path and the single-queue conduits of elastic cross
/// flows.
class conduit {
public:
    virtual ~conduit() = default;
    /// Carry a packet from the TCP sender toward the receiver.
    virtual void send_data(packet p) = 0;
    /// Carry a packet from the TCP receiver toward the sender.
    virtual void send_ack(packet p) = 0;
    /// Register delivery at the receiver side (null handler unregisters).
    virtual void on_deliver_data(flow_id flow, delivery_handler h) = 0;
    /// Register delivery at the sender side (null handler unregisters).
    virtual void on_deliver_ack(flow_id flow, delivery_handler h) = 0;
};

/// The end-to-end path as a conduit for a given flow.
class path_conduit final : public conduit {
public:
    explicit path_conduit(duplex_path& path) : path_(&path) {}

    void send_data(packet p) override { path_->send_forward(p); }
    void send_ack(packet p) override { path_->send_reverse(p); }
    void on_deliver_data(flow_id flow, delivery_handler h) override {
        path_->on_deliver_forward(flow, std::move(h));
    }
    void on_deliver_ack(flow_id flow, delivery_handler h) override {
        path_->on_deliver_reverse(flow, std::move(h));
    }

private:
    duplex_path* path_;
};

/// Conduit for an elastic cross flow that shares exactly one forward link of
/// the path. Data packets wait `access_delay` (the flow's private path up to
/// the shared queue), transit the shared link, then wait `egress_delay`
/// before delivery; ACKs return after `ack_delay` with no congestion (the
/// common assumption that the reverse direction is unloaded).
class shared_link_conduit final : public conduit {
public:
    shared_link_conduit(sim::scheduler& sched, duplex_path& path, std::size_t link_index,
                        flow_id flow, core::seconds access_delay,
                        core::seconds egress_delay, core::seconds ack_delay);

    void send_data(packet p) override;
    void send_ack(packet p) override;
    void on_deliver_data(flow_id flow, delivery_handler h) override;
    void on_deliver_ack(flow_id flow, delivery_handler h) override;

    [[nodiscard]] core::seconds round_trip_floor() const noexcept {
        return core::seconds{access_delay_ + egress_delay_ + ack_delay_};
    }

private:
    sim::scheduler* sched_;
    duplex_path* path_;
    std::size_t link_index_;
    flow_id flow_;
    double access_delay_;
    double egress_delay_;
    double ack_delay_;
    delivery_handler data_handler_;
    delivery_handler ack_handler_;
};

}  // namespace tcppred::net
