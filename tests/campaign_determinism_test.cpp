// Cross-thread-count determinism of the campaign engine: the dataset (and
// its CSV serialization) must be byte-identical for any number of worker
// threads, because every epoch is independently seeded and records are
// released in (path, trace, epoch) order (DESIGN.md §6). The resume and
// journal cases drive run_campaign_streamed, the runner every
// tcppred_campaign run takes, and compare its store's CSV export. This test
// is the acceptance bar for the parallel engine and runs under TSan in CI.
#include "testbed/campaign.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "net/cross_traffic.hpp"
#include "sim/fault_injector.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"
#include "testbed/record_store.hpp"

using namespace tcppred::testbed;

namespace {

campaign_config tiny_config() {
    campaign_config cfg;
    cfg.paths = 3;
    cfg.traces_per_path = 2;
    cfg.epochs_per_trace = 3;
    cfg.epoch.warmup = tcppred::core::seconds{0.5};
    cfg.epoch.prior_ping.count = 80;
    cfg.epoch.transfer = tcppred::core::seconds{1.5};
    return cfg;
}

std::string read_bytes(const std::filesystem::path& file) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string csv_bytes(const dataset& data) {
    const auto file = std::filesystem::temp_directory_path() /
                      ("tcppred_determinism_" + std::to_string(::getpid()) + ".csv");
    save_csv(data, file);
    std::string bytes = read_bytes(file);
    std::filesystem::remove(file);
    return bytes;
}

/// Bit pattern of a double: operator== is the wrong equality here because a
/// faulty epoch's NaN (missing measurement) must compare equal to itself.
std::uint64_t bits(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

void expect_identical(const dataset& a, const dataset& b, const char* label) {
    ASSERT_EQ(a.records.size(), b.records.size()) << label;
    ASSERT_EQ(a.paths.size(), b.paths.size()) << label;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const auto& ra = a.records[i];
        const auto& rb = b.records[i];
        EXPECT_EQ(ra.path_id, rb.path_id) << label << " record " << i;
        EXPECT_EQ(ra.trace_id, rb.trace_id) << label << " record " << i;
        EXPECT_EQ(ra.epoch_index, rb.epoch_index) << label << " record " << i;
        // Bitwise equality: identical seeds must give identical simulations,
        // independent of which thread ran the epoch.
        EXPECT_EQ(bits(ra.m.r_large_bps), bits(rb.m.r_large_bps))
            << label << " record " << i;
        EXPECT_EQ(bits(ra.m.r_small_bps), bits(rb.m.r_small_bps))
            << label << " record " << i;
        EXPECT_EQ(bits(ra.m.avail_bw_bps), bits(rb.m.avail_bw_bps))
            << label << " record " << i;
        EXPECT_EQ(bits(ra.m.phat), bits(rb.m.phat)) << label << " record " << i;
        EXPECT_EQ(bits(ra.m.that_s), bits(rb.m.that_s)) << label << " record " << i;
        EXPECT_EQ(bits(ra.m.ptilde), bits(rb.m.ptilde)) << label << " record " << i;
        EXPECT_EQ(bits(ra.m.ttilde_s), bits(rb.m.ttilde_s))
            << label << " record " << i;
        EXPECT_EQ(ra.m.events, rb.m.events) << label << " record " << i;
        EXPECT_EQ(ra.m.fault_flags, rb.m.fault_flags) << label << " record " << i;
    }
}

}  // namespace

TEST(campaign_determinism, identical_dataset_for_1_2_and_4_jobs) {
    campaign_config cfg = tiny_config();

    cfg.jobs = 1;
    const dataset serial = run_campaign(cfg);
    cfg.jobs = 2;
    const dataset two = run_campaign(cfg);
    cfg.jobs = 4;
    const dataset four = run_campaign(cfg);

    ASSERT_EQ(serial.records.size(),
              static_cast<std::size_t>(cfg.paths * cfg.traces_per_path *
                                       cfg.epochs_per_trace));
    expect_identical(serial, two, "jobs=2 vs jobs=1");
    expect_identical(serial, four, "jobs=4 vs jobs=1");

    const std::string csv1 = csv_bytes(serial);
    EXPECT_EQ(csv1, csv_bytes(two)) << "CSV differs between 1 and 2 jobs";
    EXPECT_EQ(csv1, csv_bytes(four)) << "CSV differs between 1 and 4 jobs";
}

TEST(campaign_determinism, fluid_cross_model_identical_across_jobs) {
    // The fluid cross-traffic model (DESIGN.md §13.5) integrates a
    // continuous backlog alongside discrete packets; its state is still
    // wholly per-epoch, so the same jobs-independence contract applies.
    campaign_config cfg = tiny_config();
    cfg.epoch.cross = tcppred::net::cross_model::fluid;

    cfg.jobs = 1;
    const dataset serial = run_campaign(cfg);
    cfg.jobs = 2;
    const dataset two = run_campaign(cfg);
    cfg.jobs = 4;
    const dataset four = run_campaign(cfg);

    expect_identical(serial, two, "fluid jobs=2 vs jobs=1");
    expect_identical(serial, four, "fluid jobs=4 vs jobs=1");

    const std::string csv1 = csv_bytes(serial);
    EXPECT_EQ(csv1, csv_bytes(two)) << "fluid CSV differs between 1 and 2 jobs";
    EXPECT_EQ(csv1, csv_bytes(four)) << "fluid CSV differs between 1 and 4 jobs";
}

TEST(campaign_determinism, records_are_in_serial_iteration_order) {
    campaign_config cfg = tiny_config();
    cfg.jobs = 4;
    const dataset data = run_campaign(cfg);
    std::size_t i = 0;
    for (const auto& profile : data.paths) {
        for (int trace = 0; trace < cfg.traces_per_path; ++trace) {
            for (int epoch = 0; epoch < cfg.epochs_per_trace; ++epoch, ++i) {
                ASSERT_LT(i, data.records.size());
                EXPECT_EQ(data.records[i].path_id, profile.id);
                EXPECT_EQ(data.records[i].trace_id, trace);
                EXPECT_EQ(data.records[i].epoch_index, epoch);
            }
        }
    }
    EXPECT_EQ(i, data.records.size());
}

TEST(campaign_determinism, progress_is_serialized_and_strictly_increasing) {
    campaign_config cfg = tiny_config();
    cfg.jobs = 4;
    const int total = cfg.paths * cfg.traces_per_path * cfg.epochs_per_trace;
    // The documented contract (campaign.hpp): invocations never overlap, so
    // an unsynchronized vector is safe to mutate from the callback.
    std::vector<int> seen;
    const dataset data = run_campaign(cfg, [&](int done, int t) {
        EXPECT_EQ(t, total);
        seen.push_back(done);
    });
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i + 1);
    EXPECT_EQ(data.records.size(), static_cast<std::size_t>(total));
}

TEST(campaign_determinism, repro_jobs_env_matches_explicit_jobs) {
    campaign_config cfg = tiny_config();
    cfg.paths = 2;
    cfg.traces_per_path = 1;

    cfg.jobs = 1;
    const dataset serial = run_campaign(cfg);

    ::setenv("REPRO_JOBS", "4", 1);
    cfg.jobs = 0;  // auto: pick up the environment
    const dataset from_env = run_campaign(cfg);
    ::unsetenv("REPRO_JOBS");

    expect_identical(serial, from_env, "REPRO_JOBS=4 vs jobs=1");
    EXPECT_EQ(csv_bytes(serial), csv_bytes(from_env));
}

namespace {

/// A journaled run's files, named per test and process: the store it
/// finishes into and its journal `<store>.ckpt` (as tcppred_campaign names
/// them), both removed by the destructor.
struct scoped_run {
    std::filesystem::path store;
    std::filesystem::path journal;
    explicit scoped_run(const char* tag)
        : store(std::filesystem::temp_directory_path() /
                ("tcppred_run_" + std::string(tag) + "_" + std::to_string(::getpid()) +
                 ".store")),
          journal(store.string() + ".ckpt") {
        remove_files();
    }
    ~scoped_run() { remove_files(); }
    scoped_run(const scoped_run&) = delete;
    scoped_run& operator=(const scoped_run&) = delete;

private:
    void remove_files() {
        std::filesystem::remove(store);
        std::filesystem::remove(journal);
    }
};

/// The records of a finished store, under `cfg`'s catalogue.
dataset read_store(const campaign_config& cfg, const std::filesystem::path& store) {
    record_reader reader(store, campaign_fingerprint(cfg));
    dataset data;
    data.paths = campaign_catalog(cfg);
    epoch_record rec;
    while (reader.next(rec)) data.records.push_back(rec);
    return data;
}

/// The CSV a finished store exports to: tcppred_campaign's --format csv
/// output for the run.
std::string store_csv_bytes(const std::filesystem::path& store) {
    const auto file = std::filesystem::temp_directory_path() /
                      ("tcppred_export_" + std::to_string(::getpid()) + ".csv");
    record_reader reader(store);
    store_to_csv(reader, file);
    std::string bytes = read_bytes(file);
    std::filesystem::remove(file);
    return bytes;
}

/// Claims every index: a filtered run keeps its journal unfinished.
bool claim_all(std::size_t) { return true; }

}  // namespace

TEST(campaign_resume, interrupted_then_resumed_is_byte_identical) {
    campaign_config cfg = tiny_config();
    cfg.jobs = 2;
    const dataset uninterrupted = run_campaign(cfg);

    const scoped_run run("resume");
    campaign_run_options opts;
    opts.checkpoint = run.journal;
    opts.checkpoint_every = 2;

    // Phase 1: cancel after a handful of completions (the cancellation flag
    // flips mid-run, exactly like the SIGINT path in tcppred_campaign).
    std::atomic<int> seen{0};
    opts.cancelled = [&] { return seen.load() >= 5; };
    const campaign_outcome first =
        run_campaign_streamed(cfg, run.store, opts, [&](int, int) { ++seen; });
    ASSERT_FALSE(first.complete);
    ASSERT_GT(first.epochs_completed, 0);
    ASSERT_LT(first.epochs_completed,
              cfg.paths * cfg.traces_per_path * cfg.epochs_per_trace);
    ASSERT_TRUE(std::filesystem::exists(run.journal)) << "interrupt must checkpoint";
    EXPECT_FALSE(std::filesystem::exists(run.store)) << "interrupt must not publish";

    // Phase 2: resume at a different job count; must complete and match the
    // uninterrupted run bit for bit.
    opts.cancelled = nullptr;
    opts.resume = true;
    cfg.jobs = 3;
    const campaign_outcome second = run_campaign_streamed(cfg, run.store, opts);
    ASSERT_TRUE(second.complete);
    EXPECT_EQ(second.epochs_resumed, first.epochs_completed);
    expect_identical(uninterrupted, read_store(cfg, run.store), "resumed vs uninterrupted");
    EXPECT_EQ(csv_bytes(uninterrupted), store_csv_bytes(run.store));
    EXPECT_FALSE(std::filesystem::exists(run.journal))
        << "completed run must finish its journal into the store";
}

TEST(campaign_resume, checkpoint_from_other_config_is_refused) {
    campaign_config cfg = tiny_config();
    cfg.jobs = 1;
    const scoped_run run("refuse");
    campaign_run_options opts;
    opts.checkpoint = run.journal;
    opts.checkpoint_every = 1;
    std::atomic<int> seen{0};
    opts.cancelled = [&] { return seen.load() >= 2; };
    const campaign_outcome first =
        run_campaign_streamed(cfg, run.store, opts, [&](int, int) { ++seen; });
    ASSERT_FALSE(first.complete);

    opts.cancelled = nullptr;
    opts.resume = true;
    cfg.seed += 1;  // different campaign: the checkpoint must not be trusted
    EXPECT_THROW(static_cast<void>(run_campaign_streamed(cfg, run.store, opts)),
                 dataset_error);
    EXPECT_FALSE(std::filesystem::exists(run.store));
}

TEST(campaign_resume, worker_exception_checkpoints_completed_epochs) {
    campaign_config cfg = tiny_config();
    cfg.paths = 2;
    cfg.jobs = 2;
    const dataset uninterrupted = run_campaign(cfg);

    const scoped_run run("throw");
    campaign_run_options opts;
    opts.checkpoint = run.journal;
    opts.checkpoint_every = 1000;  // only the exception path may flush
    const std::size_t poison =
        static_cast<std::size_t>(cfg.paths * cfg.traces_per_path *
                                 cfg.epochs_per_trace) /
        2;
    opts.epoch_hook = [&](std::size_t idx) {
        if (idx == poison) throw std::runtime_error("injected epoch failure");
    };
    // The first worker error propagates exactly once...
    EXPECT_THROW(static_cast<void>(run_campaign_streamed(cfg, run.store, opts)),
                 std::runtime_error);
    // ...and everything that completed before the abort was persisted.
    ASSERT_TRUE(std::filesystem::exists(run.journal));
    opts.epoch_hook = nullptr;
    opts.resume = true;
    const campaign_outcome resumed = run_campaign_streamed(cfg, run.store, opts);
    ASSERT_TRUE(resumed.complete);
    EXPECT_GT(resumed.epochs_resumed, 0);
    expect_identical(uninterrupted, read_store(cfg, run.store),
                     "resume after worker exception");
    EXPECT_EQ(csv_bytes(uninterrupted), store_csv_bytes(run.store));
}

TEST(campaign_faults, fixed_fault_seed_replays_byte_identically) {
    campaign_config cfg = tiny_config();
    cfg.paths = 2;
    cfg.jobs = 2;
    cfg.faults = tcppred::sim::fault_profile::parse(
        "pathload=0.3,ping-timeout=0.05,ping-truncate=0.2,abort=0.3,outage=0.2");

    const dataset a = run_campaign(cfg);
    cfg.jobs = 1;
    const dataset b = run_campaign(cfg);
    expect_identical(a, b, "faulty jobs=2 vs jobs=1");
    EXPECT_EQ(csv_bytes(a), csv_bytes(b));

    // Faults actually fired (rates this high over 12 epochs make a miss
    // astronomically unlikely), and none of them aborted the campaign.
    std::size_t flagged = 0;
    for (const auto& r : a.records) flagged += r.m.fault_flags != fault_none;
    EXPECT_GT(flagged, 0u);
    EXPECT_EQ(a.records.size(),
              static_cast<std::size_t>(cfg.paths * cfg.traces_per_path *
                                       cfg.epochs_per_trace));
}

TEST(campaign_faults, disabled_profile_matches_legacy_run_exactly) {
    campaign_config cfg = tiny_config();
    cfg.paths = 2;
    cfg.traces_per_path = 1;
    cfg.jobs = 2;

    const dataset legacy = run_campaign(cfg);  // cfg.faults default: disabled
    cfg.faults = tcppred::sim::fault_profile::parse("pathload=0,abort=0");
    ASSERT_FALSE(cfg.faults.enabled());
    const dataset zeroed = run_campaign(cfg);
    expect_identical(legacy, zeroed, "explicit zero rates vs default");
    const std::string bytes = csv_bytes(legacy);
    EXPECT_EQ(bytes, csv_bytes(zeroed));
    // No fault ever fired, so the CSV must not even contain the column.
    EXPECT_EQ(bytes.find("fault_flags"), std::string::npos);
}

TEST(campaign_faults, faulty_dataset_roundtrips_through_csv) {
    campaign_config cfg = tiny_config();
    cfg.paths = 2;
    cfg.traces_per_path = 1;
    cfg.jobs = 2;
    cfg.faults = tcppred::sim::fault_profile::parse("pathload=0.5,abort=0.4");
    const dataset data = run_campaign(cfg);

    const auto file = std::filesystem::temp_directory_path() /
                      ("tcppred_fault_rt_" + std::to_string(::getpid()) + ".csv");
    save_csv(data, file);
    const dataset back = load_csv(file);
    std::filesystem::remove(file);

    ASSERT_EQ(back.records.size(), data.records.size());
    std::size_t flagged = 0;
    for (std::size_t i = 0; i < data.records.size(); ++i) {
        EXPECT_EQ(back.records[i].m.fault_flags, data.records[i].m.fault_flags)
            << "record " << i;
        flagged += data.records[i].m.fault_flags != fault_none;
    }
    EXPECT_GT(flagged, 0u);
}

// --- the resume journal: an unfinished record store (DESIGN.md §10.4) -------

namespace {

void write_bytes(const std::filesystem::path& file, const std::string& bytes) {
    std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
}

/// One trace of three cheap epochs: enough for a prefix, a torn line and a
/// tail, fast enough to resume once per byte of a record line.
campaign_config journal_config() {
    campaign_config cfg;
    cfg.paths = 1;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 3;
    cfg.epoch.warmup = tcppred::core::seconds{0.2};
    cfg.epoch.prior_ping.count = 20;
    cfg.epoch.transfer = tcppred::core::seconds{0.5};
    cfg.jobs = 1;
    return cfg;
}

/// Resume `cfg` from `run`'s journal to completion, expecting a
/// dataset_error whose message carries `where` (file:line:) and `what`.
void expect_resume_refused(const campaign_config& cfg, const scoped_run& run,
                           const std::string& where, const std::string& what) {
    campaign_run_options opts;
    opts.checkpoint = run.journal;
    opts.resume = true;
    try {
        (void)run_campaign_streamed(cfg, run.store, opts);
        ADD_FAILURE() << "resume from a bad journal must throw (" << what << ")";
    } catch (const dataset_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(where), std::string::npos) << msg;
        EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
}

}  // namespace

TEST(campaign_journal, torn_tail_at_every_byte_resumes_to_identical_bytes) {
    const campaign_config cfg = journal_config();
    const std::string ref_csv = csv_bytes(run_campaign(cfg));

    // The journal an uninterrupted filtered run keeps: every record, in order.
    const scoped_run full("torn_full");
    campaign_run_options keep;
    keep.checkpoint = full.journal;
    keep.checkpoint_every = 1;
    keep.epoch_filter = claim_all;
    ASSERT_TRUE(run_campaign_streamed(cfg, {}, keep).complete);
    const std::string full_journal = read_bytes(full.journal);

    // A real interrupted run: two records released and flushed.
    const scoped_run run("torn");
    campaign_run_options opts;
    opts.checkpoint = run.journal;
    opts.checkpoint_every = 1;
    int seen = 0;
    opts.cancelled = [&] { return seen >= 2; };
    const campaign_outcome first =
        run_campaign_streamed(cfg, run.store, opts, [&](int, int) { ++seen; });
    ASSERT_FALSE(first.complete);
    ASSERT_EQ(first.epochs_completed, 2);
    const std::string interrupted = read_bytes(run.journal);
    ASSERT_EQ(full_journal.compare(0, interrupted.size(), interrupted), 0)
        << "the journal is a prefix of the full journal";

    // Cut inside the last rec line at every byte: a SIGKILL mid-append.
    const std::size_t last_line = interrupted.rfind('\n', interrupted.size() - 2) + 1;
    ASSERT_EQ(interrupted.compare(last_line, 4, "rec,"), 0);
    opts.cancelled = nullptr;
    opts.resume = true;
    for (std::size_t cut = last_line + 1; cut < interrupted.size(); ++cut) {
        write_bytes(run.journal, interrupted.substr(0, cut));
        const campaign_outcome resumed = run_campaign_streamed(cfg, run.store, opts);
        ASSERT_TRUE(resumed.complete) << "cut at " << cut;
        EXPECT_EQ(resumed.epochs_resumed, 1) << "cut at " << cut;
        ASSERT_EQ(store_csv_bytes(run.store), ref_csv) << "cut at " << cut;
        // The torn line was cut off before this run appended; the finished
        // journal is the full journal plus the footer.
        const std::string store = read_bytes(run.store);
        ASSERT_EQ(store.compare(0, full_journal.size(), full_journal), 0) << "cut at " << cut;
        ASSERT_EQ(store.compare(full_journal.size(), 7, "footer,"), 0) << "cut at " << cut;
        ASSERT_FALSE(std::filesystem::exists(run.journal)) << "cut at " << cut;
    }
}

namespace {

/// The journal a filtered, uninterrupted run of `cfg` keeps: its header,
/// then one `rec` line per record. Returned as (header, record lines), each
/// record line with its '\n'.
std::pair<std::string, std::vector<std::string>> kept_journal(const campaign_config& cfg,
                                                              const char* tag) {
    const scoped_run run(tag);
    campaign_run_options keep;
    keep.checkpoint = run.journal;
    keep.epoch_filter = claim_all;
    EXPECT_TRUE(run_campaign_streamed(cfg, {}, keep).complete);
    const std::string bytes = read_bytes(run.journal);
    const std::size_t first_rec = bytes.find("\nrec,") + 1;
    std::vector<std::string> recs;
    for (std::size_t at = first_rec; at < bytes.size();) {
        const std::size_t end = bytes.find('\n', at) + 1;
        recs.push_back(bytes.substr(at, end - at));
        at = end;
    }
    return {bytes.substr(0, first_rec), recs};
}

}  // namespace

TEST(campaign_journal, journal_that_is_not_a_prefix_is_refused) {
    const campaign_config cfg = journal_config();
    const auto [header, recs] = kept_journal(cfg, "hole_src");
    ASSERT_EQ(recs.size(), 3u);
    const scoped_run run("hole");
    const std::string file = run.journal.string();
    // The header is magic, fingerprint, paths and one catalogue line, so
    // the records start on line 5.
    write_bytes(run.journal, header + recs[0] + recs[2]);  // a hole at index 1
    expect_resume_refused(cfg, run, file + ":6:", "not a prefix");

    write_bytes(run.journal, header + recs[1]);  // does not start at the first claimed index
    expect_resume_refused(cfg, run, file + ":5:", "not a prefix");

    write_bytes(run.journal, header + recs[1] + recs[0]);  // does not ascend
    expect_resume_refused(cfg, run, file + ":5:", "not a prefix");

    // A shard claims only odd indices: {1} is its prefix, {0} is not ours.
    campaign_run_options odd;
    odd.checkpoint = run.journal;
    odd.resume = true;
    odd.epoch_filter = [](std::size_t idx) { return idx % 2 == 1; };
    write_bytes(run.journal, header + recs[0]);
    EXPECT_THROW(static_cast<void>(run_campaign_streamed(cfg, {}, odd)), dataset_error);
    write_bytes(run.journal, header + recs[1]);
    const campaign_outcome shard = run_campaign_streamed(cfg, {}, odd);
    EXPECT_TRUE(shard.complete);
    EXPECT_EQ(shard.epochs_resumed, 1);
    // The shard's journal is its product: kept, unfinished.
    EXPECT_EQ(read_bytes(run.journal), header + recs[1]);
}

TEST(campaign_journal, journal_with_another_header_is_refused) {
    // The journal's header becomes the store's, so resume requires all of
    // it, the catalogue included, to be the one this run writes.
    const campaign_config cfg = journal_config();
    const auto [header, recs] = kept_journal(cfg, "header_src");
    const scoped_run run("header");
    const std::string file = run.journal.string();
    const std::size_t cat = header.find("\n#path,") + 1;
    std::string edited = header;
    edited.insert(cat + 6, "9");  // the catalogue line's path id: 0 -> 90
    write_bytes(run.journal, edited + recs[0]);
    expect_resume_refused(cfg, run, file + ":4:", "catalogue");

    std::string fewer = header.substr(0, cat);
    fewer.replace(fewer.find("paths,1"), 7, "paths,0");
    write_bytes(run.journal, fewer + recs[0]);
    expect_resume_refused(cfg, run, file + ":3:", "catalogue");

    // The formats this one replaced are refused by their magic.
    for (const char* magic : {"tcppred-checkpoint,v1", "tcppred-store,v1"}) {
        write_bytes(run.journal, std::string(magic) + "\n" + header.substr(header.find('\n') + 1));
        expect_resume_refused(cfg, run, file + ":1:", "no longer reads");
    }
}

TEST(campaign_journal, malformed_fields_are_typed_errors_naming_file_and_line) {
    const campaign_config cfg = journal_config();
    const auto [header, recs] = kept_journal(cfg, "fields_src");
    const scoped_run run("fields");
    const std::string good = header + recs[0];
    const std::string file = run.journal.string();

    // The header's catalogue count: a negative, garbage, a partial token,
    // and a count the catalogue does not have (the record line is not one).
    const std::size_t paths_at = good.find("paths,");
    const std::size_t paths_end = good.find('\n', paths_at);
    for (const char* bad : {"-1", "abc", "3x"}) {
        write_bytes(run.journal, good.substr(0, paths_at) + "paths," + bad +
                                   good.substr(paths_end));
        expect_resume_refused(cfg, run, file + ":3:", "paths");
    }
    write_bytes(run.journal, good.substr(0, paths_at) + "paths,2" + good.substr(paths_end));
    expect_resume_refused(cfg, run, file + ":5:", "#path catalogue line");

    // One rec field at a time: a partial token, an overflowing fault_flags.
    const std::size_t rec_at = header.size();
    const auto with_field = [&](std::size_t field, const std::string& value) {
        std::vector<std::string> f =
            split_fields(good.substr(rec_at, good.size() - rec_at - 1), ',');
        f[field] = value;
        std::string line;
        for (const std::string& v : f) line += (line.empty() ? "" : ",") + v;
        return good.substr(0, rec_at) + line + '\n';
    };
    write_bytes(run.journal, with_field(1, "12x"));
    expect_resume_refused(cfg, run, file + ":5:", "12x");
    write_bytes(run.journal, with_field(16, "-1"));
    expect_resume_refused(cfg, run, file + ":5:", "events");
    write_bytes(run.journal, with_field(17, "4294967296"));
    expect_resume_refused(cfg, run, file + ":5:", "fault_flags");
    write_bytes(run.journal, with_field(18, "9223372036854775808"));
    expect_resume_refused(cfg, run, file + ":5:", "prefix count");
    // Coordinates outside the grid are refused before any index is formed.
    write_bytes(run.journal, with_field(3, "3"));
    expect_resume_refused(cfg, run, file + ":5:", "epoch 3 out of range");
    write_bytes(run.journal, with_field(1, "-1"));
    expect_resume_refused(cfg, run, file + ":5:", "path -1 out of range");
}

namespace {

/// Sleep long enough for the other workers to fill a 2-record window and
/// park behind the hole this one leaves.
void straggle() { std::this_thread::sleep_for(std::chrono::milliseconds(300)); }

/// Records of a journal, whose linear indices must ascend from 0 without
/// a gap.
std::size_t journal_prefix_length(const std::filesystem::path& file,
                                  const campaign_config& cfg) {
    record_reader reader(file, campaign_fingerprint(cfg), record_reader::mode::journal);
    std::size_t n = 0;
    epoch_record rec;
    while (reader.next(rec)) {
        const std::size_t idx =
            (static_cast<std::size_t>(rec.path_id) * cfg.traces_per_path +
             static_cast<std::size_t>(rec.trace_id)) *
                cfg.epochs_per_trace +
            static_cast<std::size_t>(rec.epoch_index);
        EXPECT_EQ(idx, n) << "journal is not the in-order prefix";
        ++n;
    }
    EXPECT_FALSE(reader.torn_tail());
    return n;
}

}  // namespace

TEST(campaign_journal, worker_error_at_a_full_window_wakes_parked_workers) {
    campaign_config cfg = tiny_config();
    cfg.jobs = 4;
    const dataset uninterrupted = run_campaign(cfg);

    const scoped_run run("window_error");
    campaign_run_options opts;
    opts.checkpoint = run.journal;
    opts.checkpoint_every = 1000;  // only the error path flushes
    opts.reorder_capacity = 2;
    const std::size_t poison = 6;
    opts.epoch_hook = [&](std::size_t idx) {
        if (idx != poison) return;
        straggle();
        throw std::runtime_error("injected epoch failure");
    };
    EXPECT_THROW(static_cast<void>(run_campaign_streamed(cfg, run.store, opts)),
                 std::runtime_error);
    const std::size_t kept = journal_prefix_length(run.journal, cfg);
    EXPECT_LE(kept, poison);

    opts.epoch_hook = nullptr;
    opts.resume = true;
    cfg.jobs = 3;
    const campaign_outcome resumed = run_campaign_streamed(cfg, run.store, opts);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(static_cast<std::size_t>(resumed.epochs_resumed), kept);
    EXPECT_EQ(csv_bytes(uninterrupted), store_csv_bytes(run.store));
}

TEST(campaign_journal, cancel_at_a_full_window_wakes_parked_workers) {
    campaign_config cfg = tiny_config();
    cfg.jobs = 4;
    const dataset uninterrupted = run_campaign(cfg);

    const scoped_run run("window_cancel");
    campaign_run_options opts;
    opts.checkpoint = run.journal;
    opts.reorder_capacity = 2;
    // The sixth poll straggles and then cancels: its index becomes a hole
    // that no worker will fill, with the others parked behind it.
    std::atomic<int> polls{0};
    std::atomic<bool> fired{false};
    opts.cancelled = [&] {
        if (fired.load()) return true;
        if (polls.fetch_add(1) + 1 != 6) return false;
        straggle();
        fired.store(true);
        return true;
    };
    const campaign_outcome first = run_campaign_streamed(cfg, run.store, opts);
    ASSERT_FALSE(first.complete);
    EXPECT_EQ(journal_prefix_length(run.journal, cfg),
              static_cast<std::size_t>(first.epochs_completed));

    opts.cancelled = nullptr;
    opts.resume = true;
    cfg.jobs = 2;
    const campaign_outcome resumed = run_campaign_streamed(cfg, run.store, opts);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.epochs_resumed, first.epochs_completed);
    EXPECT_EQ(csv_bytes(uninterrupted), store_csv_bytes(run.store));
}
