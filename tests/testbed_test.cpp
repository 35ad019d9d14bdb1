#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "core/units.hpp"
#include "testbed/campaign.hpp"
#include "testbed/epoch_runner.hpp"
#include "testbed/load_process.hpp"
#include "testbed/path_catalog.hpp"

namespace tcppred::testbed {
namespace {

TEST(path_catalog, produces_requested_count_and_mix) {
    const auto paths = ron_like_catalog(35, 1);
    ASSERT_EQ(paths.size(), 35u);
    int dsl = 0, eu = 0, kr = 0;
    for (const auto& p : paths) {
        if (p.klass == path_class::dsl) ++dsl;
        if (p.klass == path_class::transatlantic) ++eu;
        if (p.klass == path_class::transpacific) ++kr;
    }
    EXPECT_EQ(dsl, 7);   // 7/35 DSL bottlenecks, as in the paper
    EXPECT_EQ(eu, 5);    // 5 transatlantic
    EXPECT_EQ(kr, 1);    // 1 Korea path
}

TEST(path_catalog, is_deterministic_in_seed) {
    const auto a = ron_like_catalog(10, 42);
    const auto b = ron_like_catalog(10, 42);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_DOUBLE_EQ(a[i].bottleneck_capacity().value(), b[i].bottleneck_capacity().value());
        EXPECT_DOUBLE_EQ(a[i].base_utilization, b[i].base_utilization);
    }
    const auto c = ron_like_catalog(10, 43);
    bool any_differ = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        any_differ |= a[i].bottleneck_capacity() != c[i].bottleneck_capacity();
    }
    EXPECT_TRUE(any_differ);
}

TEST(path_catalog, class_parameters_in_range) {
    for (const auto& p : ron_like_catalog(35, 7)) {
        if (p.klass == path_class::dsl) {
            EXPECT_LT(p.bottleneck_capacity().value(), 3.5e6);
        } else {
            EXPECT_GE(p.bottleneck_capacity().value(), 9e6);
        }
        if (p.klass == path_class::transatlantic) {
            EXPECT_GE(p.base_rtt().value(), 0.09);
        }
        if (p.klass == path_class::transpacific) {
            EXPECT_GE(p.base_rtt().value(), 0.2);
        }
        EXPECT_GT(p.forward.at(p.bottleneck).buffer_packets, 8u);
    }
}

TEST(load_process, deterministic_and_bounded) {
    const auto paths = ron_like_catalog(5, 3);
    const auto a = load_trajectory(paths[0], 99, 200);
    const auto b = load_trajectory(paths[0], 99, 200);
    ASSERT_EQ(a.size(), 200u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].utilization, b[i].utilization);
        EXPECT_GE(a[i].utilization, 0.0);
        EXPECT_LE(a[i].utilization, 0.97);
        EXPECT_GE(a[i].elastic_flows, 0);
    }
}

TEST(load_process, shifts_occur_at_configured_rate) {
    auto paths = ron_like_catalog(1, 3);
    paths[0].shift_probability = 0.05;
    int shifts = 0;
    for (int trace = 0; trace < 20; ++trace) {
        for (const auto& s : load_trajectory(paths[0], static_cast<std::uint64_t>(trace), 100)) {
            shifts += s.regime_shift ? 1 : 0;
        }
    }
    // 2000 epochs at 5%: expect ~100 shifts, allow wide slack.
    EXPECT_GT(shifts, 40);
    EXPECT_LT(shifts, 220);
}

class epoch_fixture : public ::testing::Test {
protected:
    static epoch_config fast_epoch() {
        epoch_config cfg;
        cfg.warmup = core::seconds{0.5};
        cfg.prior_ping.count = 150;
        cfg.transfer = core::seconds{4.0};
        return cfg;
    }
};

TEST_F(epoch_fixture, lightly_loaded_path_yields_sane_measurements) {
    auto paths = ron_like_catalog(35, 1);
    // Pick a US path and force light load.
    const path_profile* us = nullptr;
    for (const auto& p : paths) {
        if (p.klass == path_class::us_university) {
            us = &p;
            break;
        }
    }
    ASSERT_NE(us, nullptr);
    load_state load;
    load.utilization = 0.1;
    load.elastic_flows = 0;

    const epoch_measurement m = run_epoch(*us, load, 7, fast_epoch());
    const double cap = us->bottleneck_capacity().value();

    EXPECT_GT(m.that_s, us->base_rtt().value() * 0.9);
    EXPECT_LT(m.that_s, us->base_rtt().value() + 0.05);
    EXPECT_LT(m.phat, 0.05);
    EXPECT_GT(m.avail_bw_bps, cap * 0.4);
    EXPECT_LT(m.avail_bw_bps, cap * 1.4);
    // W=1MB saturates the leftover capacity.
    EXPECT_GT(m.r_large_bps, cap * 0.3);
    EXPECT_LT(m.r_large_bps, cap);
    // The companion W=20KB transfer is window-limited and slower.
    EXPECT_GT(m.r_small_bps, 0.0);
    EXPECT_LT(m.r_small_bps, m.r_large_bps);
}

TEST_F(epoch_fixture, heavy_load_inflates_loss_and_rtt_during_flow) {
    auto paths = ron_like_catalog(35, 1);
    const path_profile* us = nullptr;
    for (const auto& p : paths) {
        if (p.klass == path_class::us_university) {
            us = &p;
            break;
        }
    }
    ASSERT_NE(us, nullptr);
    load_state load;
    load.utilization = 0.75;
    load.elastic_flows = 2;

    const epoch_measurement m = run_epoch(*us, load, 7, fast_epoch());
    // The saturating target flow pushes the queue: the during-flow probing
    // view must show at least as much loss and delay (§4.2.2).
    EXPECT_GE(m.ptilde, m.phat);
    EXPECT_GT(m.ttilde_s, m.that_s * 0.95);
    EXPECT_GT(m.r_large_bps, 0.0);
}

TEST_F(epoch_fixture, epoch_is_deterministic_in_seed) {
    auto paths = ron_like_catalog(5, 2);
    load_state load;
    load.utilization = 0.4;
    load.elastic_flows = 1;
    const epoch_measurement a = run_epoch(paths[2], load, 123, fast_epoch());
    const epoch_measurement b = run_epoch(paths[2], load, 123, fast_epoch());
    EXPECT_DOUBLE_EQ(a.r_large_bps, b.r_large_bps);
    EXPECT_DOUBLE_EQ(a.phat, b.phat);
    EXPECT_DOUBLE_EQ(a.avail_bw_bps, b.avail_bw_bps);
    const epoch_measurement c = run_epoch(paths[2], load, 124, fast_epoch());
    EXPECT_NE(a.r_large_bps, c.r_large_bps);
}

TEST_F(epoch_fixture, prefix_checkpoints_recorded_for_campaign2_plan) {
    auto paths = second_campaign_catalog(2, 5);
    load_state load;
    load.utilization = 0.3;
    epoch_config cfg = fast_epoch();
    cfg.transfer = core::seconds{3.0};
    cfg.prefix_s = {1.0, 2.0, 3.0};
    cfg.run_small_window = false;
    const epoch_measurement m = run_epoch(paths[1], load, 9, cfg);
    ASSERT_EQ(m.prefix_goodputs.size(), 3u);
    EXPECT_DOUBLE_EQ(m.prefix_goodputs[0].first, 1.0);
    EXPECT_GT(m.prefix_goodputs[2].second, 0.0);
    EXPECT_DOUBLE_EQ(m.r_small_bps, 0.0);
}

TEST(dataset_io, csv_roundtrip_preserves_records) {
    campaign_config cfg;
    cfg.paths = 2;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 3;
    cfg.epoch.warmup = core::seconds{0.5};
    cfg.epoch.prior_ping.count = 80;
    cfg.epoch.transfer = core::seconds{1.5};
    const dataset data = run_campaign(cfg);
    ASSERT_EQ(data.records.size(), 6u);

    const auto file = std::filesystem::temp_directory_path() / "tcppred_roundtrip.csv";
    save_csv(data, file);
    const dataset loaded = load_csv(file);
    std::filesystem::remove(file);

    ASSERT_EQ(loaded.records.size(), data.records.size());
    ASSERT_EQ(loaded.paths.size(), data.paths.size());
    for (std::size_t i = 0; i < data.records.size(); ++i) {
        const auto& a = data.records[i];
        const auto& b = loaded.records[i];
        EXPECT_EQ(a.path_id, b.path_id);
        EXPECT_EQ(a.epoch_index, b.epoch_index);
        EXPECT_NEAR(a.m.r_large_bps, b.m.r_large_bps, 1.0);
        EXPECT_NEAR(a.m.phat, b.m.phat, 1e-9);
        EXPECT_NEAR(a.m.avail_bw_bps, b.m.avail_bw_bps, 1.0);
    }
    EXPECT_EQ(loaded.profile(0).name, data.paths[0].name);
}

TEST(dataset_io, throughput_series_ordered_by_epoch) {
    dataset data;
    for (int e : {2, 0, 1}) {
        epoch_record r;
        r.path_id = 0;
        r.trace_id = 0;
        r.epoch_index = e;
        r.m.r_large_bps = 100.0 * e;
        data.records.push_back(r);
    }
    EXPECT_EQ(data.throughput_series(0, 0), (std::vector<double>{0.0, 100.0, 200.0}));
}

TEST(campaign_cfg, scales_are_ordered) {
    const auto tiny = campaign1_config(campaign_scale::tiny);
    const auto normal = campaign1_config(campaign_scale::normal);
    const auto paper = campaign1_config(campaign_scale::paper);
    EXPECT_LT(tiny.paths * tiny.traces_per_path * tiny.epochs_per_trace,
              normal.paths * normal.traces_per_path * normal.epochs_per_trace);
    EXPECT_LT(normal.paths * normal.traces_per_path * normal.epochs_per_trace,
              paper.paths * paper.traces_per_path * paper.epochs_per_trace);
    EXPECT_EQ(paper.paths, 35);
    EXPECT_EQ(paper.traces_per_path, 7);
    EXPECT_EQ(paper.epochs_per_trace, 150);
}

TEST(campaign_progress, percent_holds_near_int_max) {
    // A grid holds up to INT_MAX epochs; done * 100 in int overflows past
    // 21,474,836 of them.
    constexpr int max = std::numeric_limits<int>::max();
    EXPECT_EQ(progress_percent(max, max), 100);
    EXPECT_EQ(progress_percent(max - 1, max), 99);
    EXPECT_EQ(progress_percent(max / 2, max), 49);
    EXPECT_EQ(progress_percent(21474837, 21474837), 100);
    EXPECT_EQ(progress_percent(0, max), 0);
    EXPECT_EQ(progress_percent(0, 0), 0);
}

TEST(campaign_cfg, second_set_uses_prefix_plan) {
    const auto cfg = campaign2_config(campaign_scale::normal);
    EXPECT_TRUE(cfg.second_set);
    EXPECT_EQ(cfg.epoch.prefix_s.size(), 3u);
    EXPECT_FALSE(cfg.epoch.run_small_window);
    EXPECT_EQ(cfg.paths, 24);
}

}  // namespace
}  // namespace tcppred::testbed
