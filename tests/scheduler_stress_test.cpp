// Randomized equivalence test for the calendar-queue scheduler: drives the
// real scheduler and a trivially-correct reference queue with the same
// operation stream and requires identical firing order. This pins the
// dispatch contract (DESIGN.md §13.2) — strictly by (when, cause, id), by
// cause and then FIFO among simultaneous events, cancellation a safe no-op
// at any time — which is exactly the property that makes campaign CSVs
// byte-identical across scheduler implementations.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace tcppred::sim {
namespace {

/// Reference priority queue with the same semantics as any correct
/// implementation of the scheduler contract: min by (when, cause, id) among
/// never-cancelled entries. O(n) pop by linear scan — obviously right.
class reference_queue {
public:
    void schedule(double when, double cause, std::uint64_t id) {
        entries_.push_back({when, cause, id, true});
    }

    /// Cancels a pending entry; returns false when it already fired or was
    /// already cancelled (the real scheduler must treat that as a no-op).
    bool cancel(std::uint64_t id) {
        for (entry& e : entries_) {
            if (e.id == id && e.alive) {
                e.alive = false;
                return true;
            }
        }
        return false;
    }

    /// Pops the (when, cause, id)-minimum live entry; 0 when empty.
    std::uint64_t pop_min() {
        entry* best = nullptr;
        for (entry& e : entries_) {
            if (!e.alive) continue;
            if (best == nullptr || e.when < best->when ||
                (e.when == best->when &&
                 (e.cause < best->cause || (e.cause == best->cause && e.id < best->id)))) {
                best = &e;
            }
        }
        if (best == nullptr) return 0;
        best->alive = false;
        return best->id;
    }

    [[nodiscard]] std::size_t live() const {
        return static_cast<std::size_t>(
            std::count_if(entries_.begin(), entries_.end(),
                          [](const entry& e) { return e.alive; }));
    }

private:
    struct entry {
        double when;
        double cause;
        std::uint64_t id;
        bool alive;
    };
    std::vector<entry> entries_;
};

TEST(scheduler_stress, randomized_firing_order_matches_reference) {
    // Mixed continuous and grid-quantized times: the grid forces many exact
    // timestamp collisions, stressing the FIFO tie-break and the sorted
    // intra-bucket insertion; the continuous part stresses bucket-width
    // adaptation across very different event horizons.
    std::mt19937_64 gen(20040501);
    std::uniform_real_distribution<double> u01(0.0, 1.0);

    scheduler s;
    reference_queue ref;
    std::vector<event_handle> live_handles;
    std::uint64_t fired_id = 0;  // written by each event as it fires

    constexpr int k_ops = 60000;
    for (int i = 0; i < k_ops; ++i) {
        const double dice = u01(gen);
        if (dice < 0.55 || ref.live() == 0) {
            double dt = u01(gen) < 0.3
                            ? 0.001 * static_cast<double>(gen() % 50)  // grid: ties
                            : u01(gen) * 10.0;                         // continuous
            if (u01(gen) < 0.02) dt = 0.0;  // schedule exactly at now()
            const double when = s.now() + dt;
            const auto record = [&fired_id, &live_handles, slot = live_handles.size()] {
                fired_id = live_handles[slot].id;
            };
            event_handle h{};
            double cause = s.now();
            if (u01(gen) < 0.3) {
                // An explicit cause on the same grid, so causes tie too;
                // some fall outside [now(), when] and are clamped.
                cause = s.now() + 0.001 * static_cast<double>(gen() % 50);
                h = s.schedule_at(when, cause, record);
                cause = std::clamp(cause, s.now(), when);
            } else {
                h = s.schedule_at(when, record);
            }
            ref.schedule(when, cause, h.id);
            live_handles.push_back(h);
        } else if (dice < 0.75 && !live_handles.empty()) {
            // Cancel a random handle: maybe pending, maybe already fired —
            // both must be safe, and only a pending one may change the order.
            const std::size_t pick = gen() % live_handles.size();
            const event_handle h = live_handles[pick];
            const bool was_live = ref.cancel(h.id);
            s.cancel(h);
            (void)was_live;
        } else {
            const std::uint64_t want = ref.pop_min();
            if (want == 0) {
                EXPECT_FALSE(s.step());
            } else {
                const std::uint64_t fired_before = s.fired();
                ASSERT_TRUE(s.step());
                EXPECT_EQ(s.fired(), fired_before + 1);
                EXPECT_EQ(fired_id, want);
            }
        }
    }
    // Drain both queues completely and compare the tail order too.
    while (true) {
        const std::uint64_t want = ref.pop_min();
        if (want == 0) {
            EXPECT_FALSE(s.step());
            break;
        }
        ASSERT_TRUE(s.step());
        EXPECT_EQ(fired_id, want);
    }
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler_stress, firing_order_is_tracked_per_event) {
    // The structural variant above checks pop-for-pop agreement; this one
    // checks the actual identity of every fired event against the reference,
    // with heavy same-timestamp collision and interleaved cancellation.
    std::mt19937_64 gen(19880315);  // calendar queues: Brown 1988
    std::uniform_real_distribution<double> u01(0.0, 1.0);

    scheduler s;
    reference_queue ref;
    std::vector<std::uint64_t> real_order;
    std::vector<std::uint64_t> ref_order;
    std::vector<event_handle> handles;

    constexpr int k_events = 20000;
    for (int i = 0; i < k_events; ++i) {
        // 16-slot grid => massive tie groups; a third of the events carry
        // an explicit cause on a 4-slot grid below their time, so ties
        // split by cause before FIFO.
        const double when = 0.25 * static_cast<double>(gen() % 16);
        const double cause =
            u01(gen) < 0.33 ? std::min(when, 0.25 * static_cast<double>(gen() % 4)) : 0.0;
        const auto record = [&real_order, &handles, slot = handles.size()] {
            real_order.push_back(handles[slot].id);
        };
        const event_handle h =
            cause > 0.0 ? s.schedule_at(when, cause, record) : s.schedule_at(when, record);
        handles.push_back(h);
        ref.schedule(when, cause, h.id);
        if (u01(gen) < 0.25 && !handles.empty()) {
            const std::size_t pick = gen() % handles.size();
            s.cancel(handles[pick]);
            ref.cancel(handles[pick].id);
        }
    }
    while (s.step()) {
    }
    for (std::uint64_t id = ref.pop_min(); id != 0; id = ref.pop_min()) {
        ref_order.push_back(id);
    }
    EXPECT_EQ(real_order, ref_order);
}

TEST(scheduler_stress, stale_handle_never_cancels_a_reused_node) {
    scheduler s;
    // Fill and cancel a batch so the pool has nodes to reuse.
    std::vector<event_handle> first;
    for (int i = 0; i < 512; ++i) {
        first.push_back(s.schedule_at(1.0, [] {}));
    }
    for (const event_handle& h : first) s.cancel(h);

    // New events very likely reuse the cancelled batch's nodes.
    int fired = 0;
    std::vector<event_handle> second;
    for (int i = 0; i < 512; ++i) {
        second.push_back(s.schedule_at(2.0, [&fired] { ++fired; }));
    }
    // Stale cancels against the FIRST batch's handles must not kill the
    // second batch's events, even where the node pointer was recycled.
    for (const event_handle& h : first) s.cancel(h);
    s.run_all();
    EXPECT_EQ(fired, 512);

    // And cancelling after firing is a no-op too (ids never match again).
    for (const event_handle& h : second) s.cancel(h);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler_stress, pool_reuse_keeps_fifo_order_after_cancellations) {
    scheduler s;
    std::vector<int> order;
    std::vector<event_handle> doomed;
    // Interleave survivors and doomed events at the same timestamp.
    for (int i = 0; i < 100; ++i) {
        if (i % 2 == 0) {
            s.schedule_at(5.0, [&order, i] { order.push_back(i); });
        } else {
            doomed.push_back(s.schedule_at(5.0, [] { ADD_FAILURE(); }));
        }
    }
    for (const event_handle& h : doomed) s.cancel(h);
    // Reused nodes get fresh (higher) ids: they must fire after survivors.
    for (int i = 100; i < 150; ++i) {
        s.schedule_at(5.0, [&order, i] { order.push_back(i); });
    }
    s.run_all();
    ASSERT_EQ(order.size(), 100u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(order.front(), 0);
    EXPECT_EQ(order.back(), 149);
}

TEST(scheduler_stress, wide_horizon_mix_stays_ordered) {
    // Microsecond-spaced events against hour-scale timers: the calendar
    // queue's direct-min fallback must never return a later event first.
    scheduler s;
    std::vector<double> times;
    s.schedule_at(3600.0, [&times, &s] { times.push_back(s.now()); });
    s.schedule_at(7200.0, [&times, &s] { times.push_back(s.now()); });
    for (int i = 0; i < 1000; ++i) {
        s.schedule_at(1e-6 * static_cast<double>(i),
                      [&times, &s] { times.push_back(s.now()); });
    }
    s.run_all();
    ASSERT_EQ(times.size(), 1002u);
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
    EXPECT_DOUBLE_EQ(times.back(), 7200.0);
}

}  // namespace
}  // namespace tcppred::sim
