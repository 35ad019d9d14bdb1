// The observability half of the determinism contract (DESIGN.md §6, §12):
// for a fixed seed, counters and canonicalized trace events are identical at
// any job count, and enabling tracing never changes the dataset itself.
#include "testbed/campaign.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/evaluation.hpp"
#include "obs/counters.hpp"
#include "obs/trace_writer.hpp"

using namespace tcppred;

namespace {

// Temp paths are suffixed with the PID: two instances of this binary (e.g.
// a sanitizer build running alongside the plain one) must not share files.
std::filesystem::path temp_path(const std::string& stem) {
    return std::filesystem::temp_directory_path() /
           (stem + "." + std::to_string(::getpid()));
}

// Small but fault-heavy: every fault kind fires at least once, so the
// counters and trace events under comparison are non-trivial.
testbed::campaign_config faulted_config() {
    testbed::campaign_config cfg = testbed::campaign1_config(testbed::campaign_scale::tiny);
    cfg.paths = 3;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 6;
    cfg.faults = sim::fault_profile::parse(
        "pathload=0.3,ping-timeout=0.05,ping-truncate=0.2,abort=0.25,outage=0.2");
    return cfg;
}

std::string csv_of(const testbed::dataset& data) {
    const std::filesystem::path tmp =
        temp_path("trace_det_test.csv");
    testbed::save_csv(data, tmp);
    std::ifstream in(tmp);
    std::stringstream ss;
    ss << in.rdbuf();
    std::filesystem::remove(tmp);
    return ss.str();
}

/// Run the faulted campaign (+ an engine pass over its dataset, so predict
/// events and engine counters are exercised too) at `jobs` workers with
/// tracing into `trace_file`, returning the dataset CSV bytes and the
/// counter snapshot taken right after.
std::pair<std::string, std::map<std::string, std::uint64_t>> run_traced(
    int jobs, const std::filesystem::path& trace_file) {
    testbed::campaign_config cfg = faulted_config();
    cfg.jobs = jobs;
    obs::reset_counters();
    obs::trace_writer::instance().open(trace_file);
    const testbed::dataset data = testbed::run_campaign(cfg);
    analysis::engine_options eo;
    eo.jobs = jobs;
    (void)analysis::evaluation_engine{eo}.run(
        data, std::vector<std::string>{"fb:pftk", "10-MA"});
    obs::trace_writer::instance().close();
    return {csv_of(data), obs::counters_snapshot()};
}

}  // namespace

TEST(trace_determinism, counters_and_canonical_events_identical_across_jobs) {
    const auto t1 = temp_path("trace_det_j1.jsonl");
    const auto t4 = temp_path("trace_det_j4.jsonl");

    const auto [csv1, counters1] = run_traced(1, t1);
    const auto [csv4, counters4] = run_traced(4, t4);

    // The dataset itself: byte-identical (the pre-existing §6 contract).
    EXPECT_EQ(csv1, csv4);

    // Counter snapshots: every counter counts logical workload events, so
    // serial and pooled runs must agree exactly, name for name.
    EXPECT_EQ(counters1, counters4);
    EXPECT_GT(counters1.at("campaign.epochs_run"), 0u);
    EXPECT_GT(counters1.at("testbed.faults.transfer_aborted"), 0u);
    EXPECT_GT(counters1.at("engine.epochs_scored"), 0u);

    // Trace events: after canonicalization (volatile keys stripped, lines
    // sorted) the two runs describe the same work, byte for byte.
    const auto ev1 = obs::canonical_trace_lines(t1);
    const auto ev4 = obs::canonical_trace_lines(t4);
    EXPECT_FALSE(ev1.empty());
    EXPECT_EQ(ev1, ev4);

    std::filesystem::remove(t1);
    std::filesystem::remove(t4);
}

TEST(trace_determinism, tracing_does_not_change_the_dataset) {
    testbed::campaign_config cfg = faulted_config();
    cfg.jobs = 1;

    obs::reset_counters();
    const std::string plain = csv_of(testbed::run_campaign(cfg));

    const auto tf = temp_path("trace_det_onoff.jsonl");
    obs::trace_writer::instance().open(tf);
    const std::string traced = csv_of(testbed::run_campaign(cfg));
    obs::trace_writer::instance().close();

    EXPECT_EQ(plain, traced);
    // And the trace actually recorded the campaign it rode along with.
    std::size_t epoch_events = 0;
    for (const auto& ev : obs::read_trace_file(tf)) {
        epoch_events += std::get<std::string>(ev.at("ev")) == "epoch";
    }
    EXPECT_EQ(epoch_events, static_cast<std::size_t>(cfg.paths) *
                                static_cast<std::size_t>(cfg.traces_per_path) *
                                static_cast<std::size_t>(cfg.epochs_per_trace));
    std::filesystem::remove(tf);
}

TEST(trace_determinism, epoch_events_carry_the_schema_fields) {
    testbed::campaign_config cfg = faulted_config();
    cfg.paths = 1;
    cfg.epochs_per_trace = 2;
    cfg.jobs = 1;

    const auto tf = temp_path("trace_det_schema.jsonl");
    obs::trace_writer::instance().open(tf);
    (void)testbed::run_campaign(cfg);
    obs::trace_writer::instance().close();

    bool saw_start = false;
    for (const auto& ev : obs::read_trace_file(tf)) {
        const std::string kind = std::get<std::string>(ev.at("ev"));
        if (kind == "campaign_start") {
            saw_start = true;
            EXPECT_TRUE(ev.count("seed"));
            EXPECT_TRUE(ev.count("faults"));
        } else if (kind == "epoch") {
            for (const char* key :
                 {"path", "trace", "epoch", "seed", "fault_flags", "sim_events",
                  "dur_s", "thread"}) {
                EXPECT_TRUE(ev.count(key)) << "epoch event missing " << key;
            }
        }
    }
    EXPECT_TRUE(saw_start);
    std::filesystem::remove(tf);
}
