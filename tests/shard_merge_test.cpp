// Sharding (testbed/shard.hpp) and the shard merge (testbed/record_store.hpp):
// the merge property — ANY partition of the epoch grid into shard journals,
// merged in ANY order through a store and its CSV export, reproduces the
// serial CSV bytes exactly — plus the shard arithmetic, the k-way walk's
// linear release, and the merge failure modes (missing shard, incomplete
// coverage, foreign config, a journal out of order).
#include "testbed/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "testbed/campaign.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"
#include "testbed/record_store.hpp"

using namespace tcppred;
using testbed::shard_ref;

namespace {

/// Small but non-trivial campaign that runs in well under a second.
testbed::campaign_config quick_config() {
    testbed::campaign_config cfg;
    cfg.paths = 3;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 4;
    cfg.jobs = 1;
    cfg.epoch.warmup = core::seconds{0.5};
    cfg.epoch.prior_ping.count = 60;
    cfg.epoch.transfer = core::seconds{1.5};
    return cfg;
}

std::size_t total_epochs(const testbed::campaign_config& cfg) {
    return static_cast<std::size_t>(cfg.paths) *
           static_cast<std::size_t>(cfg.traces_per_path) *
           static_cast<std::size_t>(cfg.epochs_per_trace);
}

std::string read_file(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Run one slice of the grid into its own journal, which a filtered run
/// keeps; returns the path.
std::filesystem::path run_slice(const testbed::campaign_config& cfg,
                                const std::filesystem::path& dir, int slice_id,
                                std::function<bool(std::size_t)> filter) {
    testbed::campaign_run_options opts;
    opts.checkpoint = dir / ("slice" + std::to_string(slice_id) + ".ckpt");
    opts.epoch_filter = std::move(filter);
    const auto outcome = testbed::run_campaign_streamed(cfg, {}, opts);
    EXPECT_TRUE(outcome.complete);
    return opts.checkpoint;
}

/// Merge the journals as `--merge` does for a CSV: into a staging store,
/// exported to `dir`/merged.csv. Returns the CSV's bytes.
std::string merged_csv(const testbed::campaign_config& cfg,
                       const std::vector<std::filesystem::path>& ckpts,
                       const std::filesystem::path& dir) {
    const auto csv = dir / "merged.csv";
    const auto store = testbed::csv_staging_store(csv);
    EXPECT_EQ(testbed::merge_shard_checkpoints_to_store(cfg, ckpts, store),
              total_epochs(cfg));
    testbed::export_store_to_csv(store, csv);
    EXPECT_FALSE(std::filesystem::exists(store));
    return read_file(csv);
}

class shard_merge : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("tcppred_shard_merge_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->line()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

}  // namespace

TEST(shard_arith, parse_validates) {
    EXPECT_FALSE(testbed::parse_shard("").has_value());
    EXPECT_FALSE(testbed::parse_shard("2").has_value());
    EXPECT_FALSE(testbed::parse_shard("a/4").has_value());
    EXPECT_FALSE(testbed::parse_shard("2/x").has_value());
    EXPECT_FALSE(testbed::parse_shard("4/4").has_value());
    EXPECT_FALSE(testbed::parse_shard("-1/4").has_value());
    EXPECT_FALSE(testbed::parse_shard("0/0").has_value());
    EXPECT_FALSE(testbed::parse_shard("+1/2").has_value());
    EXPECT_FALSE(testbed::parse_shard(" 1/2").has_value());
    EXPECT_FALSE(testbed::parse_shard("1/2x").has_value());
    EXPECT_FALSE(testbed::parse_shard("1/ 2").has_value());
    EXPECT_FALSE(testbed::parse_shard("99999999999/2").has_value());
    EXPECT_FALSE(testbed::parse_shard("1/99999999999999999999999").has_value());
    const auto ok = testbed::parse_shard("2/4");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->index, 2);
    EXPECT_EQ(ok->count, 4);
}

TEST(shard_arith, filters_partition_the_grid_and_sizes_sum) {
    const std::size_t total = 37;  // deliberately not divisible
    for (const int n : {1, 2, 3, 4, 7}) {
        std::size_t claimed_total = 0;
        for (std::size_t idx = 0; idx < total; ++idx) {
            int owners = 0;
            for (int i = 0; i < n; ++i) {
                if (testbed::shard_filter(shard_ref{i, n})(idx)) ++owners;
            }
            EXPECT_EQ(owners, 1) << "epoch " << idx << " at N=" << n;
        }
        for (int i = 0; i < n; ++i) {
            claimed_total += testbed::shard_size(total, shard_ref{i, n});
        }
        EXPECT_EQ(claimed_total, total) << "N=" << n;
    }
}

TEST_F(shard_merge, strided_shards_reproduce_serial_csv_bytes) {
    const auto cfg = quick_config();
    const testbed::dataset serial = testbed::run_campaign(cfg);
    const auto serial_csv = dir_ / "serial.csv";
    testbed::save_csv(serial, serial_csv);

    const int n = 3;
    std::vector<std::filesystem::path> ckpts;
    for (int i = 0; i < n; ++i) {
        ckpts.push_back(
            run_slice(cfg, dir_, i, testbed::shard_filter(shard_ref{i, n})));
    }
    EXPECT_EQ(read_file(serial_csv), merged_csv(cfg, ckpts, dir_));
}

TEST_F(shard_merge, any_partition_any_merge_order_reproduces_serial) {
    // The merge property proper: partitions are random (pinned seeds), parts
    // may be empty, and the merge order is shuffled per trial.
    const auto cfg = quick_config();
    const std::size_t total = total_epochs(cfg);
    const testbed::dataset serial = testbed::run_campaign(cfg);
    const auto serial_csv = dir_ / "serial.csv";
    testbed::save_csv(serial, serial_csv);

    for (const unsigned trial : {1u, 2u, 3u}) {
        std::mt19937_64 gen(trial);  // pinned: failures replay exactly
        const int parts = 2 + static_cast<int>(gen() % 3);  // 2..4
        std::vector<int> owner(total);
        for (auto& o : owner) o = static_cast<int>(gen() % parts);

        std::vector<std::filesystem::path> ckpts;
        for (int part = 0; part < parts; ++part) {
            ckpts.push_back(run_slice(
                cfg, dir_, static_cast<int>(trial) * 10 + part,
                [&owner, part](std::size_t idx) { return owner[idx] == part; }));
        }
        std::shuffle(ckpts.begin(), ckpts.end(), gen);

        EXPECT_EQ(read_file(serial_csv), merged_csv(cfg, ckpts, dir_)) << "trial " << trial;
        for (const auto& p : ckpts) std::filesystem::remove(p);
    }
}

TEST_F(shard_merge, missing_shard_checkpoint_is_an_error) {
    const auto cfg = quick_config();
    const auto present =
        run_slice(cfg, dir_, 0, [](std::size_t) { return true; });
    try {
        (void)merged_csv(cfg, {present, dir_ / "nonexistent.ckpt"}, dir_);
        FAIL() << "absent shard file must throw";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos)
            << e.what();
    }
}

TEST_F(shard_merge, incomplete_coverage_is_an_error) {
    const auto cfg = quick_config();
    // Only even epochs: merge must refuse and say how many are missing.
    const auto evens =
        run_slice(cfg, dir_, 0, [](std::size_t idx) { return idx % 2 == 0; });
    try {
        (void)merged_csv(cfg, {evens}, dir_);
        FAIL() << "uncovered epochs must throw";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find("cover only"), std::string::npos)
            << e.what();
    }
}

TEST_F(shard_merge, foreign_config_checkpoint_is_rejected) {
    const auto cfg = quick_config();
    testbed::campaign_config other = cfg;
    other.seed = 999;
    const auto foreign = run_slice(other, dir_, 0, [](std::size_t) { return true; });
    EXPECT_THROW((void)merged_csv(cfg, {foreign}, dir_), testbed::dataset_error);
}

TEST_F(shard_merge, overlapping_shards_merge_cleanly) {
    // Overlap is legal: slot contents are deterministic, so a twice-covered
    // epoch is byte-identical in both checkpoints.
    const auto cfg = quick_config();
    const testbed::dataset serial = testbed::run_campaign(cfg);
    const auto a = run_slice(cfg, dir_, 0, [](std::size_t idx) { return idx < 8; });
    const auto b = run_slice(cfg, dir_, 1, [](std::size_t idx) { return idx >= 4; });
    const auto serial_csv = dir_ / "serial.csv";
    testbed::save_csv(serial, serial_csv);
    EXPECT_EQ(read_file(serial_csv), merged_csv(cfg, {a, b}, dir_));
}

TEST_F(shard_merge, journals_stream_to_the_sink_in_linear_order) {
    const auto cfg = quick_config();
    const std::size_t total = total_epochs(cfg);
    std::vector<std::filesystem::path> ckpts;
    for (int i = 0; i < 3; ++i) {
        ckpts.push_back(run_slice(cfg, dir_, i, testbed::shard_filter(shard_ref{i, 3})));
    }
    // An overlapping fourth shard: its duplicates never reach the sink.
    ckpts.push_back(run_slice(cfg, dir_, 3, [](std::size_t idx) { return idx < 5; }));
    std::vector<std::size_t> seen;
    const auto collect = [&](std::size_t idx, testbed::epoch_record&&) {
        seen.push_back(idx);
    };
    EXPECT_EQ(testbed::merge_shard_journals(cfg, ckpts, collect), total);
    std::vector<std::size_t> linear(total);
    std::iota(linear.begin(), linear.end(), std::size_t{0});
    EXPECT_EQ(seen, linear);
}

TEST_F(shard_merge, gap_names_the_first_missing_index_and_stops_the_sink) {
    const auto cfg = quick_config();
    const std::size_t total = total_epochs(cfg);
    const auto holed = run_slice(cfg, dir_, 0, [](std::size_t idx) { return idx != 5; });
    std::vector<std::size_t> seen;
    try {
        (void)testbed::merge_shard_journals(
            cfg, {holed},
            [&](std::size_t idx, testbed::epoch_record&&) { seen.push_back(idx); });
        FAIL() << "a gap must throw";
    } catch (const testbed::dataset_error& e) {
        const std::string expected = "shards cover only " + std::to_string(total - 1) +
                                     " of " + std::to_string(total) +
                                     " epochs (first missing linear index 5)";
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
    }
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST_F(shard_merge, journal_that_does_not_ascend_is_rejected) {
    const auto cfg = quick_config();
    const auto all = run_slice(cfg, dir_, 0, [](std::size_t) { return true; });
    // Swap the first two rec lines.
    std::string bytes = read_file(all);
    const std::size_t a = bytes.find("rec,");
    const std::size_t b = bytes.find('\n', a) + 1;
    const std::size_t c = bytes.find('\n', b) + 1;
    bytes = bytes.substr(0, a) + bytes.substr(b, c - b) + bytes.substr(a, b - a) +
            bytes.substr(c);
    std::ofstream(all, std::ios::binary | std::ios::trunc) << bytes;
    try {
        (void)merged_csv(cfg, {all}, dir_);
        FAIL() << "a journal out of order must throw";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find("does not ascend"), std::string::npos)
            << e.what();
    }
}
