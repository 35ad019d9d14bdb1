// The measurement-fault layer: deterministic planning, fixed draw order,
// graceful degradation of individual epochs, and the default-off guarantee
// (a disabled profile changes nothing, bit for bit).
#include "sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/cross_traffic.hpp"
#include "sim/chaos.hpp"
#include "testbed/campaign.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/epoch_runner.hpp"
#include "testbed/load_process.hpp"
#include "testbed/path_catalog.hpp"
#include "testbed/record_store.hpp"

using namespace tcppred;
using sim::epoch_fault_plan;
using sim::fault_profile;
using sim::plan_epoch_faults;

namespace {

testbed::path_profile test_profile() {
    // A mid-capacity single-bottleneck path from the standard catalogue.
    return testbed::ron_like_catalog(3, 42)[1];
}

testbed::epoch_config fast_epoch() {
    testbed::epoch_config cfg;
    cfg.warmup = core::seconds{0.5};
    cfg.prior_ping.count = 60;
    cfg.transfer = core::seconds{1.5};
    return cfg;
}

testbed::load_state test_load(const testbed::path_profile& p) {
    return testbed::load_trajectory(p, 7, 1)[0];
}

}  // namespace

TEST(fault_profile, parse_roundtrip_and_validation) {
    const fault_profile p = fault_profile::parse(
        "pathload=0.1,ping-timeout=0.02,ping-truncate=0.05,abort=0.2,outage=0.03,"
        "seed=99");
    EXPECT_DOUBLE_EQ(p.pathload_fail, 0.1);
    EXPECT_DOUBLE_EQ(p.ping_timeout_rate, 0.02);
    EXPECT_DOUBLE_EQ(p.ping_truncate, 0.05);
    EXPECT_DOUBLE_EQ(p.transfer_abort, 0.2);
    EXPECT_DOUBLE_EQ(p.outage, 0.03);
    EXPECT_EQ(p.seed, 99u);
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(fault_profile::parse(p.spec()).spec(), p.spec());

    EXPECT_FALSE(fault_profile{}.enabled());
    EXPECT_EQ(fault_profile{}.spec(), "off");
    EXPECT_THROW(static_cast<void>(fault_profile::parse("bogus=0.1")),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(fault_profile::parse("pathload=1.5")),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(fault_profile::parse("pathload=-0.1")),
                 std::invalid_argument);
}

TEST(fault_profile, seed_is_a_whole_unsigned_token) {
    // The seed enters the checkpoint fingerprint, so "12x" must not run as
    // seed 12 and "-1" must not wrap to 2^64 - 1.
    EXPECT_EQ(fault_profile::parse("pathload=0.5,seed=12").seed, 12u);
    for (const char* bad : {"pathload=0.5,seed=12x", "pathload=0.5,seed=-1",
                            "pathload=0.5,seed=", "pathload=0.5,seed= 7",
                            "pathload=0.5,seed=18446744073709551616"}) {
        EXPECT_THROW(static_cast<void>(fault_profile::parse(bad)), std::invalid_argument)
            << bad;
    }
}

TEST(chaos_profile, seed_is_a_whole_unsigned_token) {
    EXPECT_EQ(sim::chaos_profile::parse("kill=0.1,seed=7").seed, 7u);
    for (const char* bad : {"kill=0.1,seed=7zz", "kill=0.1,seed=-1", "seed=+7"}) {
        EXPECT_THROW(static_cast<void>(sim::chaos_profile::parse(bad)),
                     std::invalid_argument)
            << bad;
    }
    ::setenv("REPRO_CHAOS", "seed=7zz", 1);
    EXPECT_THROW(static_cast<void>(sim::chaos_profile::from_env()), std::invalid_argument);
    ::unsetenv("REPRO_CHAOS");
}

TEST(chaos_profile, kill_is_the_only_key_besides_seed) {
    for (const char* bad : {"hang=0.1", "kill=0.1,hang-s=60", "kill=1.5", "kill=-0.1"}) {
        EXPECT_THROW(static_cast<void>(sim::chaos_profile::parse(bad)),
                     std::invalid_argument)
            << bad;
    }
    EXPECT_EQ(sim::chaos_profile::parse("kill=0.25,seed=9").spec(), "kill=0.25,seed=9");
    EXPECT_EQ(sim::chaos_profile::parse("kill=0").spec(), "off");
}

TEST(chaos_plan, kill_schedules_are_pinned) {
    // Campaign seed 20040501, epochs 0..63. The rerun's attempt number
    // re-rolls the schedule; a change to the draw moves these kills.
    const auto kills = [](const char* spec, int attempt) {
        const sim::chaos_profile p = sim::chaos_profile::parse(spec);
        std::vector<std::size_t> out;
        for (std::size_t idx = 0; idx < 64; ++idx) {
            if (sim::plan_chaos_kill(p, 20040501, attempt, idx)) out.push_back(idx);
        }
        return out;
    };
    using v = std::vector<std::size_t>;
    EXPECT_EQ(kills("kill=0.15,seed=3", 0), (v{5, 8, 13, 21, 22, 23, 33, 39, 50, 59}));
    EXPECT_EQ(kills("kill=0.15,seed=3", 1),
              (v{3, 4, 15, 18, 21, 33, 34, 40, 43, 47, 59}));
    EXPECT_EQ(kills("kill=0.1,seed=4", 0), (v{8, 20, 31, 33, 34, 48}));
    EXPECT_EQ(kills("kill=0.25", 0), (v{9, 11, 31, 36, 46, 47, 48, 55, 56, 58, 62}));
    EXPECT_EQ(kills("off", 0), v{});
}

TEST(plan_epoch_faults, deterministic_in_coordinates) {
    fault_profile prof;
    prof.pathload_fail = 0.5;
    prof.transfer_abort = 0.5;
    const epoch_fault_plan a = plan_epoch_faults(prof, 1234, 3, 1, 7);
    const epoch_fault_plan b = plan_epoch_faults(prof, 1234, 3, 1, 7);
    EXPECT_EQ(a.pathload_fail, b.pathload_fail);
    EXPECT_EQ(a.transfer_abort_fraction, b.transfer_abort_fraction);
    EXPECT_EQ(a.ping_fault_seed, b.ping_fault_seed);

    // Different coordinates draw from independent streams.
    const epoch_fault_plan c = plan_epoch_faults(prof, 1234, 3, 1, 8);
    // (Not a strict inequality on any single field — but the ping stream
    // seed, derived per coordinate, must differ.)
    EXPECT_NE(a.ping_fault_seed, c.ping_fault_seed);
}

TEST(plan_epoch_faults, fixed_draw_order_isolates_fault_types) {
    // Enabling the abort fault must not re-randomize the pathload decision:
    // each decision consumes its slots in a fixed order regardless of which
    // rates are zero.
    fault_profile only_pathload;
    only_pathload.pathload_fail = 0.5;
    fault_profile both = only_pathload;
    both.transfer_abort = 0.9;

    for (int epoch = 0; epoch < 50; ++epoch) {
        const epoch_fault_plan a = plan_epoch_faults(only_pathload, 99, 1, 0, epoch);
        const epoch_fault_plan b = plan_epoch_faults(both, 99, 1, 0, epoch);
        EXPECT_EQ(a.pathload_fail, b.pathload_fail) << "epoch " << epoch;
    }
}

TEST(plan_epoch_faults, zero_profile_yields_empty_plan) {
    const epoch_fault_plan plan = plan_epoch_faults(fault_profile{}, 1, 0, 0, 0);
    EXPECT_FALSE(plan.any());
    EXPECT_FALSE(epoch_fault_plan{}.any()) << "the default plan has no faults";
}

TEST(epoch_faults, default_plan_changes_nothing) {
    const auto profile = test_profile();
    const auto load = test_load(profile);
    const testbed::epoch_config cfg = fast_epoch();

    const testbed::epoch_measurement a = testbed::run_epoch(profile, load, 5, cfg);
    const testbed::epoch_measurement b =
        testbed::run_epoch(profile, load, 5, cfg, epoch_fault_plan{});

    EXPECT_EQ(a.r_large_bps, b.r_large_bps);
    EXPECT_EQ(a.avail_bw_bps, b.avail_bw_bps);
    EXPECT_EQ(a.phat, b.phat);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.fault_flags, testbed::fault_none);
    EXPECT_EQ(b.fault_flags, testbed::fault_none);
}

TEST(epoch_faults, pathload_nonconvergence_yields_nan_and_flag) {
    const auto profile = test_profile();
    const auto load = test_load(profile);
    epoch_fault_plan plan;
    plan.pathload_fail = true;

    const testbed::epoch_measurement m =
        testbed::run_epoch(profile, load, 5, fast_epoch(), plan);
    EXPECT_TRUE(std::isnan(m.avail_bw_bps));
    EXPECT_TRUE(m.fault_flags & testbed::fault_pathload_failed);
    EXPECT_TRUE(testbed::apriori_faulty(m.fault_flags));
    // The rest of the epoch still happened.
    EXPECT_GT(m.r_large_bps, 0.0);
    EXPECT_GT(m.that_s, 0.0);
}

TEST(epoch_faults, transfer_abort_truncates_and_flags) {
    const auto profile = test_profile();
    const auto load = test_load(profile);
    const testbed::epoch_config clean_cfg = fast_epoch();
    const testbed::epoch_measurement clean =
        testbed::run_epoch(profile, load, 5, clean_cfg);

    epoch_fault_plan plan;
    plan.transfer_abort_fraction = 0.4;
    const testbed::epoch_measurement m =
        testbed::run_epoch(profile, load, 5, clean_cfg, plan);
    EXPECT_TRUE(m.fault_flags & testbed::fault_transfer_aborted);
    EXPECT_TRUE(testbed::actual_faulty(m.fault_flags));
    // An aborted transfer reports goodput over its (shorter) lifetime; the
    // a-priori view is untouched.
    EXPECT_EQ(m.phat, clean.phat);
    EXPECT_EQ(m.that_s, clean.that_s);
    EXPECT_GT(m.r_large_bps, 0.0);
}

TEST(epoch_faults, ping_faults_degrade_the_apriori_view) {
    const auto profile = test_profile();
    const auto load = test_load(profile);
    epoch_fault_plan plan;
    plan.ping_timeout_rate = 0.5;
    plan.ping_fault_seed = 77;
    plan.ping_truncate_fraction = 0.5;

    const testbed::epoch_measurement m =
        testbed::run_epoch(profile, load, 5, fast_epoch(), plan);
    EXPECT_TRUE(m.fault_flags & testbed::fault_ping_degraded);
    EXPECT_TRUE(m.fault_flags & testbed::fault_ping_partial);
    EXPECT_TRUE(testbed::apriori_faulty(m.fault_flags));
    // Injected timeouts inflate the apparent loss rate well above the clean
    // epoch's (which is near zero on this path at this load).
    EXPECT_GT(m.phat, 0.2);
}

TEST(epoch_faults, outage_flags_and_degrades_throughput) {
    const auto profile = test_profile();
    const auto load = test_load(profile);
    const testbed::epoch_measurement clean =
        testbed::run_epoch(profile, load, 5, fast_epoch());

    epoch_fault_plan plan;
    plan.outage = true;
    plan.outage_start_fraction = 0.2;
    plan.outage_duration_fraction = 0.2;
    const testbed::epoch_measurement m =
        testbed::run_epoch(profile, load, 5, fast_epoch(), plan);
    EXPECT_TRUE(m.fault_flags & testbed::fault_path_outage);
    EXPECT_TRUE(testbed::actual_faulty(m.fault_flags));
    // A 20% blackout inside the transfer costs real throughput.
    EXPECT_LT(m.r_large_bps, clean.r_large_bps);
}

// --- checkpoint fingerprint coverage of the fault profile -------------------
// A resume under ANY changed fault knob must be refused: the records already
// in the checkpoint were produced under the old profile, and mixing them
// with epochs from a new one silently corrupts the dataset. The fingerprint
// embeds fault_profile::spec(), which canonically encodes every knob a
// --faults spec can set.

TEST(checkpoint_fingerprint, covers_every_fault_profile_knob) {
    testbed::campaign_config base;
    base.paths = 2;
    base.traces_per_path = 1;
    base.epochs_per_trace = 3;
    const std::string fp = testbed::campaign_fingerprint(base);

    const auto perturbed = [&](auto&& mutate) {
        testbed::campaign_config c = base;
        mutate(c.faults);
        return testbed::campaign_fingerprint(c);
    };
    EXPECT_NE(fp, perturbed([](fault_profile& f) { f.pathload_fail = 0.1; }));
    EXPECT_NE(fp, perturbed([](fault_profile& f) { f.ping_timeout_rate = 0.1; }));
    EXPECT_NE(fp, perturbed([](fault_profile& f) { f.ping_truncate = 0.1; }));
    EXPECT_NE(fp, perturbed([](fault_profile& f) { f.transfer_abort = 0.1; }));
    EXPECT_NE(fp, perturbed([](fault_profile& f) { f.outage = 0.1; }));
    // The fault seed only matters once some fault is enabled.
    EXPECT_NE(perturbed([](fault_profile& f) {
                  f.pathload_fail = 0.1;
                  f.seed = 99;
              }),
              perturbed([](fault_profile& f) { f.pathload_fail = 0.1; }));
}

TEST(checkpoint_fingerprint, distinct_rates_of_the_same_knob_differ) {
    testbed::campaign_config a, b;
    a.faults.transfer_abort = 0.25;
    b.faults.transfer_abort = 0.50;
    EXPECT_NE(testbed::campaign_fingerprint(a), testbed::campaign_fingerprint(b));
}

namespace {

/// A journal of `records` default records under `fingerprint`, with an
/// empty catalogue, published whole by its first flush.
void write_journal(const std::filesystem::path& file, const std::string& fingerprint,
                   std::size_t records) {
    testbed::record_writer journal({}, file, fingerprint, {});
    for (std::size_t i = 0; i < records; ++i) journal.append(testbed::epoch_record{});
    journal.flush();
}

}  // namespace

TEST(checkpoint_fingerprint, resume_under_changed_fault_knob_is_rejected) {
    testbed::campaign_config cfg;
    cfg.paths = 1;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 2;
    cfg.faults.ping_timeout_rate = 0.05;  // as if --faults ping-timeout=0.05

    const std::filesystem::path file =
        std::filesystem::temp_directory_path() / "tcppred_fp_test.ckpt";
    write_journal(file, testbed::campaign_fingerprint(cfg), 1);

    // Same profile: the journal opens.
    constexpr auto journal = testbed::record_reader::mode::journal;
    EXPECT_NO_THROW(testbed::record_reader(file, testbed::campaign_fingerprint(cfg), journal));

    // One knob nudged (a resume under another --faults): refused, not merged.
    testbed::campaign_config changed = cfg;
    changed.faults.ping_timeout_rate = 0.10;
    EXPECT_THROW(
        testbed::record_reader(file, testbed::campaign_fingerprint(changed), journal),
        testbed::dataset_error);

    std::filesystem::remove(file);
}

TEST(checkpoint_fingerprint, fields_join_is_the_fingerprint) {
    // The named-field decomposition and the opaque string are one schema:
    // the '|'-join of the field values must reproduce the fingerprint
    // byte for byte, or mismatch diagnoses would drift from reality.
    for (const bool second : {false, true}) {
        for (const auto model : {net::cross_model::packet, net::cross_model::fluid}) {
            testbed::campaign_config cfg;
            cfg.second_set = second;
            cfg.epoch.cross = model;
            cfg.faults.transfer_abort = 0.25;
            std::string joined;
            for (const auto& f : testbed::campaign_fingerprint_fields(cfg)) {
                if (!joined.empty()) joined += '|';
                joined += f.value;
            }
            EXPECT_EQ(joined, testbed::campaign_fingerprint(cfg));
        }
    }
}

TEST(checkpoint_fingerprint, mismatch_report_names_every_slot_of_a_campaign2_config) {
    // Campaign 2 carries prefix slots after the fixed ones. Changing each
    // slot of the fingerprint in turn must yield a report naming exactly
    // that field, with the schema's own name for it.
    const auto cfg = testbed::campaign2_config(testbed::campaign_scale::tiny);
    ASSERT_FALSE(cfg.epoch.prefix_s.empty());
    const auto fields = testbed::campaign_fingerprint_fields(cfg);
    const std::string stored = testbed::campaign_fingerprint(cfg);
    for (std::size_t i = 0; i < fields.size(); ++i) {
        std::string requested;
        for (std::size_t j = 0; j < fields.size(); ++j) {
            if (j > 0) requested += '|';
            requested += fields[j].value;
            if (j == i) requested += 'x';
        }
        EXPECT_EQ(testbed::describe_fingerprint_mismatch(stored, requested),
                  "\n  " + fields[i].name + ": store=" + fields[i].value +
                      " requested=" + fields[i].value + "x");
    }
}

TEST(checkpoint_fingerprint, mismatch_report_names_the_differing_fields) {
    testbed::campaign_config cfg;
    cfg.paths = 2;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 3;

    testbed::campaign_config changed = cfg;
    changed.seed = 777;
    changed.faults.transfer_abort = 0.5;
    changed.epoch.cross = net::cross_model::fluid;

    const std::string diff = testbed::describe_fingerprint_mismatch(
        testbed::campaign_fingerprint(cfg), testbed::campaign_fingerprint(changed));
    EXPECT_NE(diff.find("seed: store=20040501 requested=777"), std::string::npos)
        << diff;
    EXPECT_NE(diff.find("faults: store=off requested=abort=0.5"),
              std::string::npos)
        << diff;
    EXPECT_NE(diff.find("epoch.cross: store=packet requested=fluid"),
              std::string::npos)
        << diff;
    // Unchanged fields stay out of the report.
    EXPECT_EQ(diff.find("paths:"), std::string::npos) << diff;
    EXPECT_EQ(diff.find("simulator_revision:"), std::string::npos) << diff;

    // A revision is named like any other field.
    std::string older = testbed::campaign_fingerprint(cfg);
    const std::string revision = "|" + std::to_string(testbed::k_simulator_revision) + "|";
    older.replace(older.find(revision), revision.size(), "|0|");
    EXPECT_NE(testbed::describe_fingerprint_mismatch(older, testbed::campaign_fingerprint(cfg))
                  .find("simulator_revision: store=0 requested=" +
                        std::to_string(testbed::k_simulator_revision)),
              std::string::npos);

    // And the journal reader surfaces the same diagnosis to the user.
    const std::filesystem::path file =
        std::filesystem::temp_directory_path() / "tcppred_fpdiff_test.ckpt";
    write_journal(file, testbed::campaign_fingerprint(cfg), 0);
    try {
        testbed::record_reader reader(file, testbed::campaign_fingerprint(changed),
                                      testbed::record_reader::mode::journal);
        FAIL() << "mismatched fingerprint must throw";
    } catch (const testbed::dataset_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("seed: store=20040501 requested=777"),
                  std::string::npos)
            << what;
    }
    std::filesystem::remove(file);
}

// --- a journal's first flush: published whole by atomic_write_stream -------
// A journal's first flush creates it with one atomic_write_stream: the
// header and records go to a temp file beside the journal, which a rename
// puts in place. The journal reads back whole and no temp is left over.

TEST(atomic_write_stream, checkpoint_journal_roundtrips) {
    const auto base = std::filesystem::temp_directory_path() / "tcppred_journal_publish";
    std::filesystem::remove_all(base);
    std::filesystem::create_directories(base);
    const std::filesystem::path file = base / "c.ckpt";

    testbed::campaign_config cfg;
    cfg.paths = 1;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 2;
    const std::string fingerprint = testbed::campaign_fingerprint(cfg);
    {
        testbed::epoch_record rec;
        rec.path_id = 3;
        rec.m.r_large_bps = 1.25e6;
        testbed::record_writer journal({}, file, fingerprint, {});
        journal.append(rec);
        journal.flush();
    }

    testbed::record_reader reader(file, fingerprint, testbed::record_reader::mode::journal);
    testbed::epoch_record back;
    ASSERT_TRUE(reader.next(back));
    EXPECT_EQ(back.path_id, 3);
    EXPECT_EQ(back.m.r_large_bps, 1.25e6);
    EXPECT_FALSE(reader.next(back));
    EXPECT_FALSE(reader.torn_tail());
    std::size_t entries = 0;
    for (const auto& e : std::filesystem::directory_iterator(base)) {
        EXPECT_EQ(e.path().filename(), "c.ckpt");
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    std::filesystem::remove_all(base);
}

// --- atomic_write_stream: a failed write publishes nothing ------------------

TEST(atomic_write_stream, failed_write_keeps_the_old_file_and_leaves_no_temp) {
    const auto base = std::filesystem::temp_directory_path() / "tcppred_stream_pub";
    std::filesystem::remove_all(base);
    std::filesystem::create_directories(base);
    const std::filesystem::path target = base / "out.csv";
    testbed::atomic_write_stream(target, "test", [](std::ostream& out) { out << "old\n"; });
    EXPECT_THROW(testbed::atomic_write_stream(target, "test",
                                              [](std::ostream& out) {
                                                  out << "half";
                                                  out.setstate(std::ios::badbit);
                                              }),
                 std::runtime_error);
    EXPECT_THROW(testbed::atomic_write_stream(
                     target, "test",
                     [](std::ostream&) { throw std::runtime_error("writer failed"); }),
                 std::runtime_error);
    std::ifstream in(target);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), "old\n");
    std::size_t entries = 0;
    for (const auto& e : std::filesystem::directory_iterator(base)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    EXPECT_THROW(testbed::atomic_write_stream(base / "no-such-dir" / "x.csv", "test",
                                              [](std::ostream&) {}),
                 std::runtime_error);
    std::filesystem::remove_all(base);
}
