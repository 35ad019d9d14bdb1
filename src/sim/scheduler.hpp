// Discrete-event scheduler: the clock and event queue every simulated
// component (links, TCP endpoints, probers, traffic sources) runs on.
//
// Implementation: a calendar queue (Brown 1988) over pool-allocated event
// nodes whose callbacks live in inline small-buffer storage
// (sim/callback.hpp) — the steady-state schedule/fire cycle performs no
// heap allocation. Design and contracts: DESIGN.md §13.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/callback.hpp"

namespace tcppred::sim {

/// Simulated time in seconds since the start of the simulation.
using time_point = double;

/// Opaque handle for a scheduled event, usable to cancel it before it fires.
/// A handle never dangles: cancelling after the event fired (or was itself
/// cancelled, or the slot was reused by a later event) is a safe no-op,
/// because the (node, id) pair only matches while the original event is
/// still pending.
struct event_handle {
    std::uint64_t id{0};
    void* node{nullptr};

    [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

/// Single-threaded discrete-event scheduler.
///
/// Events are callbacks tagged with an absolute firing time and a *cause*:
/// the instant whose work scheduled them, `now()` at scheduling unless the
/// caller names a later one. The dispatch order contract (DESIGN.md §13.2)
/// is ascending `(when, cause, id)`:
///   - strictly by ascending firing time;
///   - events for the same instant fire by cause, then in the order they
///     were scheduled (FIFO tie-breaking, by monotonically increasing event
///     id), which keeps packet-level simulations deterministic. A default
///     cause never decreases along the ids, so events without an explicit
///     cause order exactly as by `(when, id)`.
///
/// Cancellation is O(1): `cancel()` marks the node dead and destroys its
/// callback immediately; the node itself is reclaimed when the queue next
/// walks past it (or on rebucketing). `pending()` counts such dead-but-not-
/// yet-reclaimed events, exactly as the previous heap-based implementation
/// counted cancelled-but-not-yet-popped entries.
class scheduler {
public:
    using callback = small_callback;

    scheduler();
    ~scheduler();
    scheduler(const scheduler&) = delete;
    scheduler& operator=(const scheduler&) = delete;

    /// Current simulated time.
    [[nodiscard]] time_point now() const noexcept { return now_; }

    /// Schedule `cb` at absolute time `when` (must be >= now()), caused by
    /// now().
    event_handle schedule_at(time_point when, callback cb) {
        return schedule_at(when, now_, std::move(cb));
    }

    /// Schedule `cb` at `when` on behalf of the work of instant `cause`
    /// (clamped into [now(), when]): it fires where an event scheduled at
    /// `cause` would. net::link schedules each delivery at admission with
    /// the packet's departure as its cause.
    event_handle schedule_at(time_point when, time_point cause, callback cb);

    /// Schedule `cb` to fire `delay` seconds from now (delay >= 0).
    event_handle schedule_in(time_point delay, callback cb) {
        return schedule_at(now_ + delay, std::move(cb));
    }

    /// Cancel a previously scheduled event. Safe to call with an invalid,
    /// already-fired, or already-cancelled handle (no effect).
    void cancel(event_handle h);

    /// Cause of the event being dispatched, or of the last one a bare
    /// step() fired. +infinity before the first dispatch and once
    /// run_until() or run_all() return, when every event due by now() has
    /// fired.
    [[nodiscard]] time_point cause() const noexcept { return cause_; }

    /// Fire the next pending event, advancing the clock. Returns false when
    /// the queue is empty.
    bool step();

    /// Run events until the queue is empty or the clock passes `t_end`.
    /// Leaves the clock at min(t_end, time of last event fired) — the clock
    /// is always advanced to `t_end` on return so subsequent schedule_in
    /// calls are relative to the horizon.
    void run_until(time_point t_end);

    /// Run until no events remain.
    void run_all();

    /// Number of events currently pending (including cancelled-but-not-yet
    /// reclaimed ones).
    [[nodiscard]] std::size_t pending() const noexcept { return live_ + dead_; }

    /// Total number of events fired so far (diagnostics / micro-benchmarks).
    [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

private:
    /// Pool-allocated intrusive event node. Nodes never move once allocated;
    /// buckets chain them through `next`. A dead (cancelled) node keeps its
    /// queue position but has id == 0 and an empty callback.
    struct event_node {
        time_point when{0.0};
        time_point cause{0.0};
        std::uint64_t id{0};
        event_node* next{nullptr};
        small_callback cb;
    };

    /// The dispatch order: (when, cause, id) ascending.
    [[nodiscard]] static bool precedes(const event_node& a, const event_node& b) noexcept;
    [[nodiscard]] event_node* alloc_node();
    void release_node(event_node* n) noexcept;
    void insert_node(event_node* n);
    [[nodiscard]] event_node* pop_min();
    [[nodiscard]] const event_node* peek_min();
    void rebucket(std::size_t new_bucket_count);
    void purge_all_dead() noexcept;
    /// Virtual (un-wrapped) bucket index of an event time.
    [[nodiscard]] double virtual_bucket(time_point t) const noexcept;

    // --- calendar queue ---
    std::vector<event_node*> buckets_;
    std::size_t bucket_mask_{0};   ///< buckets_.size() - 1 (power of two)
    double width_{1e-3};           ///< bucket width, simulated seconds
    double inv_width_{1e3};
    double v_cur_{0.0};            ///< virtual bucket the scan is positioned at
    std::size_t cur_{0};           ///< v_cur_ wrapped into buckets_
    std::size_t live_{0};          ///< pending, not cancelled
    std::size_t dead_{0};          ///< cancelled, not yet reclaimed
    /// EMA of positive inter-dequeue gaps: the width estimate feeding
    /// rebucket() (Brown's rule of thumb: width a small multiple of the
    /// mean gap keeps ~1 live event per bucket).
    double gap_ema_{0.0};
    double last_dequeued_{0.0};

    // --- node pool ---
    std::vector<std::unique_ptr<event_node[]>> chunks_;
    event_node* free_list_{nullptr};

    time_point now_{0.0};
    time_point cause_{std::numeric_limits<time_point>::infinity()};
    std::uint64_t next_id_{1};
    std::uint64_t fired_{0};
};

}  // namespace tcppred::sim
