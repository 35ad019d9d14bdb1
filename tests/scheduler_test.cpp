#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace tcppred::sim {
namespace {

TEST(scheduler, starts_at_time_zero) {
    scheduler s;
    EXPECT_DOUBLE_EQ(s.now(), 0.0);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler, fires_events_in_time_order) {
    scheduler s;
    std::vector<int> order;
    s.schedule_at(2.0, [&] { order.push_back(2); });
    s.schedule_at(1.0, [&] { order.push_back(1); });
    s.schedule_at(3.0, [&] { order.push_back(3); });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(scheduler, simultaneous_events_fire_fifo) {
    scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        s.schedule_at(1.0, [&order, i] { order.push_back(i); });
    }
    s.run_all();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(scheduler, schedule_in_is_relative_to_now) {
    scheduler s;
    double fired_at = -1.0;
    s.schedule_at(5.0, [&] { s.schedule_in(2.5, [&] { fired_at = s.now(); }); });
    s.run_all();
    EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(scheduler, rejects_events_in_the_past) {
    scheduler s;
    s.schedule_at(10.0, [] {});
    s.run_all();
    EXPECT_THROW(s.schedule_at(5.0, [] {}), std::invalid_argument);
}

TEST(scheduler, cancelled_event_does_not_fire) {
    scheduler s;
    bool fired = false;
    const event_handle h = s.schedule_at(1.0, [&] { fired = true; });
    s.cancel(h);
    s.run_all();
    EXPECT_FALSE(fired);
}

TEST(scheduler, cancelling_invalid_handle_is_safe) {
    scheduler s;
    s.cancel(event_handle{});
    s.cancel(event_handle{12345});
    bool fired = false;
    s.schedule_at(1.0, [&] { fired = true; });
    s.run_all();
    EXPECT_TRUE(fired);
}

TEST(scheduler, run_until_stops_at_horizon) {
    scheduler s;
    std::vector<double> fired;
    for (double t = 1.0; t <= 5.0; t += 1.0) {
        s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
    }
    s.run_until(3.0);
    EXPECT_EQ(fired.size(), 3u);
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
    s.run_until(10.0);
    EXPECT_EQ(fired.size(), 5u);
    EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(scheduler, run_until_skips_cancelled_head) {
    scheduler s;
    bool late_fired = false;
    const event_handle h = s.schedule_at(1.0, [] {});
    s.schedule_at(5.0, [&] { late_fired = true; });
    s.cancel(h);
    s.run_until(2.0);
    EXPECT_FALSE(late_fired);
    EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(scheduler, events_scheduled_while_running_fire) {
    scheduler s;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100) s.schedule_in(0.1, chain);
    };
    s.schedule_in(0.1, chain);
    s.run_all();
    EXPECT_EQ(count, 100);
    EXPECT_NEAR(s.now(), 10.0, 1e-9);
}

TEST(scheduler, fired_counts_events) {
    scheduler s;
    for (int i = 0; i < 7; ++i) s.schedule_at(static_cast<double>(i), [] {});
    s.run_all();
    EXPECT_EQ(s.fired(), 7u);
}

TEST(scheduler, simultaneous_events_fire_by_cause_then_fifo) {
    scheduler s;
    std::vector<int> order;
    s.schedule_at(2.0, 1.5, [&] { order.push_back(0); });
    s.schedule_at(2.0, 0.5, [&] { order.push_back(1); });
    s.schedule_at(2.0, [&] { order.push_back(2); });  // caused by now() = 0
    s.schedule_at(2.0, 1.5, [&] { order.push_back(3); });
    s.schedule_at(2.0, 0.5, [&] { order.push_back(4); });
    s.schedule_at(1.0, [&] {
        // Caused by 1.0: after every event caused earlier, before 1.5.
        s.schedule_at(2.0, [&] { order.push_back(5); });
    });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 4, 5, 0, 3}));
}

TEST(scheduler, cause_is_clamped_into_now_and_when) {
    scheduler s;
    std::vector<double> causes;
    const auto record = [&] { causes.push_back(s.cause()); };
    s.schedule_at(1.0, [&] {
        s.schedule_at(3.0, 0.25, record);  // before now(): clamped up to 1.0
        s.schedule_at(3.0, 9.0, record);   // after `when`: clamped down to 3.0
        s.schedule_at(3.0, 2.0, record);
    });
    s.run_all();
    EXPECT_EQ(causes, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(scheduler, cause_reports_the_dispatching_event) {
    scheduler s;
    EXPECT_EQ(s.cause(), std::numeric_limits<double>::infinity());
    std::vector<double> seen;
    s.schedule_at(1.0, [&] {
        seen.push_back(s.cause());
        s.schedule_in(1.0, [&] { seen.push_back(s.cause()); });
    });
    s.schedule_at(4.0, 3.5, [&] { seen.push_back(s.cause()); });
    ASSERT_TRUE(s.step());
    EXPECT_EQ(s.cause(), 0.0);  // a bare step leaves the fired event's cause
    s.run_until(10.0);
    EXPECT_EQ(seen, (std::vector<double>{0.0, 1.0, 3.5}));
    // Every event at or before now() has fired: nothing pending precedes.
    EXPECT_EQ(s.cause(), std::numeric_limits<double>::infinity());
}

TEST(scheduler, step_returns_false_when_empty) {
    scheduler s;
    EXPECT_FALSE(s.step());
    s.schedule_at(1.0, [] {});
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
}

}  // namespace
}  // namespace tcppred::sim
