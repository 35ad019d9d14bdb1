// The record store (testbed/record_store.hpp): lossless writer/reader
// round-trip, store→CSV conversion byte-identical to save_csv, the store
// sink of the campaign sweep reproducing run_campaign bitwise at any job
// count, the journal that becomes the store resuming to identical bytes at
// any flush cadence, interruption point and torn byte, the store sink of
// the shard merge, evaluate_stream equivalence with the in-memory engine
// (including fault-conditioned aggregation), and the reader's refusal of
// foreign-fingerprint / unfinished / truncated / tampered input; a CSV
// output as the export of a staging store, and the figure cache
// (load_or_run) as a fingerprinted store.
#include "testbed/record_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/evaluation.hpp"
#include "obs/counters.hpp"
#include "testbed/campaign.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"
#include "testbed/shard.hpp"

using namespace tcppred;

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

/// quick_config with every fault class enabled, so fault_flags, failed
/// measurements and the CSV's optional fault column are all exercised.
testbed::campaign_config faulty_config() {
    auto cfg = quick_config();
    cfg.epochs_per_trace = 6;
    cfg.faults = sim::fault_profile::parse("pathload=0.3,ping-timeout=0.2,abort=0.2");
    return cfg;
}

std::string read_file(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Exact equality, except NaN compares equal to NaN (faulted epochs carry
/// NaN measurements; EXPECT_EQ rejects NaN == NaN). The CSV byte-identity
/// tests pin the exact serialization, so payload bits are not at issue here.
void expect_double_equal(double a, double b) {
    if (std::isnan(a) && std::isnan(b)) return;
    EXPECT_EQ(a, b);
}

void expect_records_equal(const testbed::epoch_record& a,
                          const testbed::epoch_record& b) {
    EXPECT_EQ(a.path_id, b.path_id);
    EXPECT_EQ(a.trace_id, b.trace_id);
    EXPECT_EQ(a.epoch_index, b.epoch_index);
    for (std::size_t i = 0; i < testbed::k_measured_fields.size(); ++i) {
        SCOPED_TRACE("measured field " + std::to_string(i));
        const auto member = testbed::k_measured_fields[i].member;
        expect_double_equal(a.m.*member, b.m.*member);
    }
    EXPECT_EQ(a.m.events, b.m.events);
    EXPECT_EQ(a.m.fault_flags, b.m.fault_flags);
    ASSERT_EQ(a.m.prefix_goodputs.size(), b.m.prefix_goodputs.size());
    for (std::size_t i = 0; i < a.m.prefix_goodputs.size(); ++i) {
        EXPECT_EQ(a.m.prefix_goodputs[i].first, b.m.prefix_goodputs[i].first);
        EXPECT_EQ(a.m.prefix_goodputs[i].second, b.m.prefix_goodputs[i].second);
    }
}

class record_store : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("tcppred_record_store_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->line()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    /// Write `data` to a store; returns the path.
    std::filesystem::path write_store(const testbed::dataset& data,
                                      const std::string& fingerprint,
                                      const char* name = "a.store") {
        const auto file = dir_ / name;
        testbed::record_writer w(file, fingerprint,
                                 testbed::csv_catalog_lines(data.paths));
        for (const auto& rec : data.records) w.append(rec);
        w.finish();
        return file;
    }

    std::filesystem::path dir_;
};

TEST_F(record_store, round_trip_is_lossless) {
    const auto cfg = faulty_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    const auto file = write_store(data, testbed::campaign_fingerprint(cfg));
    testbed::record_reader r(file, testbed::campaign_fingerprint(cfg));
    EXPECT_EQ(r.total(), data.records.size());
    EXPECT_EQ(r.catalog_lines().size(), data.paths.size());
    testbed::epoch_record rec;
    std::size_t i = 0;
    while (r.next(rec)) {
        ASSERT_LT(i, data.records.size());
        expect_records_equal(rec, data.records[i]);
        ++i;
    }
    EXPECT_EQ(i, data.records.size());
}

TEST_F(record_store, footer_counts_match_dataset) {
    const auto cfg = faulty_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    std::size_t faulted = 0;
    for (const auto& rec : data.records) {
        faulted += rec.m.fault_flags != testbed::fault_none;
    }
    ASSERT_GT(faulted, 0u) << "faulty_config must actually fault some epochs";
    const auto file = write_store(data, testbed::campaign_fingerprint(cfg));
    testbed::record_reader r(file);
    EXPECT_EQ(r.n_traces(), data.traces().size());
    EXPECT_EQ(r.n_faulted(), faulted);
    EXPECT_TRUE(r.any_faults());
}

TEST_F(record_store, footer_counts_are_checked_at_the_end_of_the_stream) {
    // A footer count rewritten at the same byte length keeps the end line's
    // offset valid, so the store opens. Streaming it to the end must still
    // catch the lie, and store_to_csv — whose fault_flags column follows the
    // footer — must then publish nothing.
    const auto cfg = faulty_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    const std::string whole = read_file(write_store(data, testbed::campaign_fingerprint(cfg)));
    const std::size_t footer_at = whole.rfind("\nfooter,") + 1;
    const std::size_t footer_end = whole.find('\n', footer_at);
    const auto footer =
        testbed::split_fields(whole.substr(footer_at, footer_end - footer_at), ',');
    ASSERT_EQ(footer.size(), 4u);
    ASSERT_NE(footer[3], std::string(footer[3].size(), '0')) << "no faulted epochs";

    // Records (a larger count, so it stays above the others), traces, faults.
    for (const std::size_t field : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        std::vector<std::string> f = footer;
        f[field] = std::string(f[field].size(), field == 1 ? '9' : '0');
        const std::string line = f[0] + ',' + f[1] + ',' + f[2] + ',' + f[3];
        const auto p = dir_ / "tampered.store";
        {
            std::ofstream out(p, std::ios::binary | std::ios::trunc);
            out << whole.substr(0, footer_at) << line << whole.substr(footer_end);
        }

        testbed::record_reader r(p);
        testbed::epoch_record rec;
        std::size_t streamed = 0;
        try {
            while (r.next(rec)) ++streamed;
            FAIL() << "tampered footer field " << field << " accepted";
        } catch (const testbed::dataset_error& e) {
            EXPECT_NE(std::string(e.what()).find("footer counts"), std::string::npos)
                << e.what();
        }
        EXPECT_EQ(streamed, data.records.size());

        testbed::record_reader again(p);
        const auto csv = dir_ / "tampered.csv";
        EXPECT_THROW(testbed::store_to_csv(again, csv), testbed::dataset_error);
        EXPECT_FALSE(std::filesystem::exists(csv));
        for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
            EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
        }
    }
}

TEST_F(record_store, store_to_csv_matches_save_csv_bytes) {
    // Both the fault-free shape (no fault_flags column) and the faulted one
    // (column present) must convert byte-identically.
    for (const bool faulted : {false, true}) {
        const auto cfg = faulted ? faulty_config() : quick_config();
        const testbed::dataset data = testbed::run_campaign(cfg);
        const auto ref_csv = dir_ / (faulted ? "ref_f.csv" : "ref.csv");
        testbed::save_csv(data, ref_csv);

        const auto store = write_store(data, testbed::campaign_fingerprint(cfg),
                                       faulted ? "f.store" : "c.store");
        testbed::record_reader r(store);
        const auto out_csv = dir_ / (faulted ? "out_f.csv" : "out.csv");
        testbed::store_to_csv(r, out_csv);
        EXPECT_EQ(read_file(out_csv), read_file(ref_csv)) << "faulted=" << faulted;
    }
}

TEST_F(record_store, streamed_campaign_reproduces_run_campaign_at_any_jobs) {
    auto cfg = quick_config();
    const testbed::dataset ref = testbed::run_campaign(cfg);
    const auto ref_csv = dir_ / "ref.csv";
    testbed::save_csv(ref, ref_csv);

    for (const int jobs : {1, 4}) {
        cfg.jobs = jobs;
        const auto store = dir_ / ("s" + std::to_string(jobs) + ".store");
        testbed::campaign_run_options opts;
        opts.reorder_capacity = 2;  // force reorder-window blocking
        const auto outcome = testbed::run_campaign_streamed(cfg, store, opts);
        EXPECT_TRUE(outcome.complete);
        EXPECT_EQ(outcome.epochs_completed,
                  static_cast<int>(testbed::campaign_total_epochs(cfg)));

        testbed::record_reader r(store, testbed::campaign_fingerprint(cfg));
        const auto csv = dir_ / ("s" + std::to_string(jobs) + ".csv");
        testbed::store_to_csv(r, csv);
        EXPECT_EQ(read_file(csv), read_file(ref_csv)) << "jobs=" << jobs;
    }
}

TEST_F(record_store, streamed_campaign_cancel_leaves_no_store) {
    const auto cfg = quick_config();
    const auto store = dir_ / "cancelled.store";
    testbed::campaign_run_options opts;
    opts.cancelled = [] { return true; };  // cancel before the first epoch
    const auto outcome = testbed::run_campaign_streamed(cfg, store, opts);
    EXPECT_FALSE(outcome.complete);
    EXPECT_FALSE(std::filesystem::exists(store));
    // No stray temp files either.
    EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(record_store, interrupted_store_run_resumes_to_identical_bytes) {
    // A store's bytes depend on neither the flush cadence, nor where a run
    // was interrupted, nor the job count of either leg: every journaled run
    // below must finish into the bytes of a run without a journal.
    auto cfg = quick_config();
    cfg.jobs = 2;
    const auto ref = dir_ / "ref.store";
    ASSERT_TRUE(testbed::run_campaign_streamed(cfg, ref).complete);
    const std::string ref_bytes = read_file(ref);

    for (const int every : {1, 3, 1000}) {
        for (const int interrupt_after : {1, 5}) {
            for (const int resume_jobs : {1, 3}) {
                const std::string what = "every=" + std::to_string(every) +
                                         " interrupt_after=" +
                                         std::to_string(interrupt_after) +
                                         " resume_jobs=" + std::to_string(resume_jobs);
                // Interrupted: no store, a journal of the released prefix.
                const auto store = dir_ / "resumed.store";
                testbed::campaign_run_options opts;
                opts.checkpoint = dir_ / "resumed.store.ckpt";
                opts.checkpoint_every = every;
                std::atomic<int> seen{0};
                opts.cancelled = [&] { return seen.load() >= interrupt_after; };
                cfg.jobs = 2;
                const auto first = testbed::run_campaign_streamed(
                    cfg, store, opts, [&](int, int) { ++seen; });
                ASSERT_FALSE(first.complete) << what;
                EXPECT_FALSE(std::filesystem::exists(store)) << what;
                ASSERT_TRUE(std::filesystem::exists(opts.checkpoint)) << what;

                // Resumed: the journal is reopened after its prefix, finished
                // and renamed into place.
                opts.cancelled = nullptr;
                opts.resume = true;
                cfg.jobs = resume_jobs;
                const auto second = testbed::run_campaign_streamed(cfg, store, opts);
                ASSERT_TRUE(second.complete) << what;
                EXPECT_EQ(second.epochs_resumed, first.epochs_completed) << what;
                EXPECT_EQ(read_file(store), ref_bytes) << what;
                EXPECT_FALSE(std::filesystem::exists(opts.checkpoint)) << what;
                std::filesystem::remove(store);
            }
        }
    }
}

TEST_F(record_store, torn_journal_at_every_byte_of_its_tail_resumes_to_identical_bytes) {
    // A store-mode journal killed mid-append (a torn last rec line), between
    // finish()'s footer and its rename (a footer or end line, whole or
    // torn), or after the end line but before the rename: every cut resumes
    // to the uninterrupted store's bytes and leaves no journal behind.
    auto cfg = quick_config();
    cfg.paths = 1;
    cfg.epochs_per_trace = 3;
    const auto ref = dir_ / "ref.store";
    ASSERT_TRUE(testbed::run_campaign_streamed(cfg, ref).complete);
    const std::string whole = read_file(ref);
    const std::size_t footer_at = whole.rfind("\nfooter,") + 1;
    const std::size_t last_rec = whole.rfind("\nrec,", footer_at - 2) + 1;

    const auto store = dir_ / "torn.store";
    testbed::campaign_run_options opts;
    opts.checkpoint = dir_ / "torn.store.ckpt";
    opts.resume = true;
    for (std::size_t cut = last_rec + 1; cut <= whole.size(); ++cut) {
        {
            std::ofstream out(opts.checkpoint, std::ios::binary | std::ios::trunc);
            out << whole.substr(0, cut);
        }
        const auto resumed = testbed::run_campaign_streamed(cfg, store, opts);
        ASSERT_TRUE(resumed.complete) << "cut at " << cut;
        EXPECT_EQ(resumed.epochs_resumed, cut < footer_at ? 2 : 3) << "cut at " << cut;
        ASSERT_EQ(read_file(store), whole) << "cut at " << cut;
        ASSERT_FALSE(std::filesystem::exists(opts.checkpoint)) << "cut at " << cut;
        std::filesystem::remove(store);
    }
}

TEST_F(record_store, error_and_cancel_at_a_full_window_resume_to_identical_bytes) {
    auto cfg = quick_config();
    const auto ref = dir_ / "ref.store";
    ASSERT_TRUE(testbed::run_campaign_streamed(cfg, ref).complete);
    cfg.jobs = 4;
    const auto straggle = [] { std::this_thread::sleep_for(std::chrono::milliseconds(300)); };

    // A worker error and a cancel, each leaving a hole the other workers
    // park behind at a 2-record window; each call must return, and the
    // journal must be the in-order prefix.
    for (const bool cancel : {false, true}) {
        const auto store = dir_ / (cancel ? "cancel.store" : "error.store");
        testbed::campaign_run_options opts;
        opts.checkpoint = store.string() + ".ckpt";
        opts.reorder_capacity = 2;
        std::atomic<int> polls{0};
        std::atomic<bool> fired{false};
        if (cancel) {
            opts.cancelled = [&] {
                if (fired.load()) return true;
                if (polls.fetch_add(1) + 1 != 6) return false;
                straggle();
                fired.store(true);
                return true;
            };
            EXPECT_FALSE(testbed::run_campaign_streamed(cfg, store, opts).complete);
        } else {
            opts.epoch_hook = [&](std::size_t idx) {
                if (idx != 5) return;
                straggle();
                throw std::runtime_error("injected epoch failure");
            };
            EXPECT_THROW(static_cast<void>(testbed::run_campaign_streamed(cfg, store, opts)),
                         std::runtime_error);
        }
        EXPECT_FALSE(std::filesystem::exists(store));
        testbed::record_reader reader(opts.checkpoint, testbed::campaign_fingerprint(cfg),
                                      testbed::record_reader::mode::journal);
        std::size_t kept = 0;
        testbed::epoch_record rec;
        while (reader.next(rec)) {
            const std::size_t idx = static_cast<std::size_t>(rec.path_id) *
                                        static_cast<std::size_t>(cfg.epochs_per_trace) +
                                    static_cast<std::size_t>(rec.epoch_index);
            EXPECT_EQ(idx, kept++) << "journal is not the in-order prefix";
        }

        opts.cancelled = nullptr;
        opts.epoch_hook = nullptr;
        opts.resume = true;
        const auto resumed = testbed::run_campaign_streamed(cfg, store, opts);
        ASSERT_TRUE(resumed.complete) << "cancel=" << cancel;
        EXPECT_EQ(static_cast<std::size_t>(resumed.epochs_resumed), kept);
        EXPECT_EQ(read_file(store), read_file(ref)) << "cancel=" << cancel;
    }
}

TEST_F(record_store, merge_shard_checkpoints_streams_to_store) {
    const auto cfg = quick_config();
    const std::size_t total = testbed::campaign_total_epochs(cfg);

    std::vector<std::filesystem::path> ckpts;
    for (int s = 0; s < 2; ++s) {
        testbed::campaign_run_options opts;
        opts.checkpoint = dir_ / ("shard" + std::to_string(s) + ".ckpt");
        opts.epoch_filter = testbed::shard_filter(testbed::shard_ref{s, 2});
        const auto outcome = testbed::run_campaign_streamed(cfg, {}, opts);
        ASSERT_TRUE(outcome.complete);
        ckpts.push_back(opts.checkpoint);
    }

    const auto store = dir_ / "merged.store";
    EXPECT_EQ(testbed::merge_shard_checkpoints_to_store(cfg, ckpts, store), total);

    const testbed::dataset ref = testbed::run_campaign(cfg);
    const auto ref_csv = dir_ / "ref.csv";
    testbed::save_csv(ref, ref_csv);
    testbed::record_reader r(store, testbed::campaign_fingerprint(cfg));
    const auto csv = dir_ / "merged.csv";
    testbed::store_to_csv(r, csv);
    EXPECT_EQ(read_file(csv), read_file(ref_csv));
}

TEST_F(record_store, merge_rejects_missing_and_incomplete_shards) {
    const auto cfg = quick_config();
    EXPECT_THROW(testbed::merge_shard_checkpoints_to_store(
                     cfg, {dir_ / "nonexistent.ckpt"}, dir_ / "out.store"),
                 testbed::dataset_error);

    // One shard alone does not cover the grid.
    testbed::campaign_run_options opts;
    opts.checkpoint = dir_ / "shard0.ckpt";
    opts.epoch_filter = testbed::shard_filter(testbed::shard_ref{0, 2});
    ASSERT_TRUE(testbed::run_campaign_streamed(cfg, {}, opts).complete);
    EXPECT_THROW(testbed::merge_shard_checkpoints_to_store(cfg, {opts.checkpoint},
                                                           dir_ / "out.store"),
                 testbed::dataset_error);
}

TEST_F(record_store, reader_rejects_foreign_fingerprint) {
    const auto cfg = quick_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    const auto file = write_store(data, testbed::campaign_fingerprint(cfg));

    auto other = cfg;
    other.seed += 1;
    try {
        testbed::record_reader r(file, testbed::campaign_fingerprint(other));
        FAIL() << "foreign fingerprint must be rejected";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
                  std::string::npos);
    }
    // Empty expected fingerprint accepts any campaign.
    testbed::record_reader any(file);
    EXPECT_EQ(any.total(), data.records.size());
}

TEST_F(record_store, reader_rejects_truncated_and_tampered_stores) {
    const auto cfg = quick_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    const auto file = write_store(data, testbed::campaign_fingerprint(cfg));
    const std::string whole = read_file(file);

    const auto write_variant = [&](const std::string& content) {
        const auto p = dir_ / "variant.store";
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out << content;
        return p;
    };
    const auto expect_refused = [&](const std::string& content, const std::string& what) {
        try {
            testbed::record_reader r(write_variant(content));
            testbed::epoch_record rec;
            while (r.next(rec)) {
            }
            ADD_FAILURE() << "accepted: " << what;
        } catch (const testbed::dataset_error& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
        }
    };

    // Truncations mid-end line, mid-records and at the footer have no end
    // line, as a journal has none: all are refused as unfinished. A cut
    // header is refused as truncated.
    const std::size_t footer_at = whole.rfind("\nfooter,") + 1;
    const std::size_t rec_at = whole.find("\nrec,") + 1;
    for (const std::size_t cut : {whole.size() - 2, whole.size() / 2, footer_at}) {
        expect_refused(whole.substr(0, cut), "unfinished journal");
    }
    expect_refused(whole.substr(0, rec_at / 2), "truncated store");

    // An end offset off by one points at no footer; one past the file is
    // out of range.
    const std::size_t end_at = whole.rfind("end,");
    const std::string head = whole.substr(0, end_at);
    expect_refused(head + "end," + std::to_string(footer_at + 1) + "\n", "does not point");
    expect_refused(head + "end," + std::to_string(whole.size()) + "\n", "out of range");
    // A record after the footer, and a second end line.
    const std::string first_rec = whole.substr(rec_at, whole.find('\n', rec_at) + 1 - rec_at);
    expect_refused(head + first_rec + whole.substr(end_at), "does not point");
    expect_refused(whole + whole.substr(end_at), "does not point");

    expect_refused("not,a,store\n", "not a tcppred record store");
    expect_refused("tcppred-store,v1\nfingerprint,x\n", "no longer reads");
    EXPECT_THROW(testbed::record_reader r(dir_ / "missing.store"), testbed::dataset_error);
}

TEST_F(record_store, empty_store_is_diagnosed_as_empty_not_unseekable) {
    // Regression: a 0-byte store (a writer that died before its first
    // flush) and a genuinely unseekable stream used to collapse into the
    // same baffling "store is not seekable" error. The empty file must name
    // its real problem.
    const auto p = dir_ / "empty.store";
    { std::ofstream out(p, std::ios::binary | std::ios::trunc); }
    try {
        testbed::record_reader r(p);
        FAIL() << "empty store must be rejected";
    } catch (const testbed::dataset_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("empty (0 bytes)"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("not seekable"), std::string::npos) << msg;
    }

    // A stream that truly cannot seek still gets the seekability diagnosis.
    struct unseekable_buf : std::streambuf {
        // default seekoff/seekpos return pos_type(-1): every seek fails
    } buf;
    std::istream unseekable(&buf);
    try {
        testbed::record_reader r(unseekable, "<pipe>", "");
        FAIL() << "unseekable stream must be rejected";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find("not seekable"), std::string::npos)
            << e.what();
    }
}

TEST_F(record_store, csv_normalized_record_matches_csv_round_trip) {
    const auto cfg = faulty_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    const auto csv = dir_ / "a.csv";
    testbed::save_csv(data, csv);
    const testbed::dataset loaded = testbed::load_csv(csv);
    ASSERT_EQ(loaded.records.size(), data.records.size());
    for (std::size_t i = 0; i < data.records.size(); ++i) {
        testbed::epoch_record norm = testbed::csv_normalized_record(data.records[i]);
        expect_records_equal(norm, loaded.records[i]);
    }
}

TEST_F(record_store, evaluate_stream_matches_engine_bitwise) {
    // Faulted campaign: exercises unscored traces, the conditioned RMSRE
    // split, and stale-input scoring — everything the streamed aggregation
    // folds incrementally.
    const auto cfg = faulty_config();
    const testbed::dataset raw = testbed::run_campaign(cfg);
    const auto csv = dir_ / "a.csv";
    testbed::save_csv(raw, csv);
    const testbed::dataset data = testbed::load_csv(csv);

    const std::vector<std::string> specs{"fb:pftk", "10-MA-LSO", "0.8-HW-LSO"};
    const auto results = analysis::evaluation_engine{}.run(data, specs);

    std::vector<const testbed::epoch_record*> ordered;
    for (const auto& [key, recs] : data.traces()) {
        ordered.insert(ordered.end(), recs.begin(), recs.end());
    }
    std::size_t pos = 0;
    analysis::stream_eval_options sopts;
    sopts.keep_epoch_errors = {0, 1, 2};
    const auto streamed = analysis::evaluate_stream(
        [&](testbed::epoch_record& out) {
            if (pos >= ordered.size()) return false;
            out = *ordered[pos++];
            return true;
        },
        specs, sopts);

    ASSERT_EQ(streamed.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto expected = analysis::summarize(results[i], true);
        EXPECT_EQ(streamed[i].name, expected.name);
        EXPECT_EQ(streamed[i].traces_unscored, expected.traces_unscored);
        ASSERT_EQ(streamed[i].traces.size(), expected.traces.size());
        for (std::size_t t = 0; t < expected.traces.size(); ++t) {
            EXPECT_EQ(streamed[i].traces[t].path_id, expected.traces[t].path_id);
            EXPECT_EQ(streamed[i].traces[t].trace_id, expected.traces[t].trace_id);
            expect_double_equal(streamed[i].traces[t].rmsre, expected.traces[t].rmsre);
            EXPECT_EQ(streamed[i].traces[t].epochs, expected.traces[t].epochs);
        }
        ASSERT_EQ(streamed[i].epoch_errors.size(), expected.epoch_errors.size());
        for (std::size_t e = 0; e < expected.epoch_errors.size(); ++e) {
            expect_double_equal(streamed[i].epoch_errors[e], expected.epoch_errors[e]);
        }
        expect_double_equal(streamed[i].conditioned.rmsre_clean,
                            expected.conditioned.rmsre_clean);
        EXPECT_EQ(streamed[i].conditioned.n_clean, expected.conditioned.n_clean);
        expect_double_equal(streamed[i].conditioned.rmsre_faulty,
                            expected.conditioned.rmsre_faulty);
        EXPECT_EQ(streamed[i].conditioned.n_faulty, expected.conditioned.n_faulty);
        expect_double_equal(streamed[i].conditioned.rmsre_stale,
                            expected.conditioned.rmsre_stale);
        EXPECT_EQ(streamed[i].conditioned.n_stale, expected.conditioned.n_stale);
    }
}

TEST_F(record_store, finished_reader_refuses_a_journal_and_names_resume) {
    auto cfg = quick_config();
    const auto store = dir_ / "j.store";
    testbed::campaign_run_options opts;
    opts.checkpoint = dir_ / "j.store.ckpt";
    opts.cancelled = [] { return true; };
    ASSERT_FALSE(testbed::run_campaign_streamed(cfg, store, opts).complete);
    try {
        testbed::record_reader r(opts.checkpoint);
        FAIL() << "an unfinished journal opened as a finished store";
    } catch (const testbed::dataset_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(opts.checkpoint.string()), std::string::npos) << msg;
        EXPECT_NE(msg.find("unfinished journal"), std::string::npos) << msg;
        EXPECT_NE(msg.find("--resume"), std::string::npos) << msg;
    }
}

TEST_F(record_store, writer_abort_never_touches_target) {
    const auto file = dir_ / "aborted.store";
    {
        testbed::record_writer w(file, "fp", {});
        w.append(testbed::epoch_record{});
        w.abort();
    }
    EXPECT_FALSE(std::filesystem::exists(file));
    EXPECT_TRUE(std::filesystem::is_empty(dir_));

    {
        // Destructor without finish() behaves like abort().
        testbed::record_writer w(file, "fp", {});
        w.append(testbed::epoch_record{});
    }
    EXPECT_FALSE(std::filesystem::exists(file));
    EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(record_store, writer_abort_never_deletes_a_journal) {
    // A journal is the resume point: neither abort() nor the destructor of
    // an unfinished writer may remove it, and the target stays untouched.
    const auto file = dir_ / "j.store";
    const auto journal = dir_ / "j.store.ckpt";
    {
        testbed::record_writer w(file, journal, "fp", {});
        w.append(testbed::epoch_record{});
        ASSERT_TRUE(w.flush());
        w.append(testbed::epoch_record{});  // unflushed: dropped
    }
    EXPECT_FALSE(std::filesystem::exists(file));
    ASSERT_TRUE(std::filesystem::exists(journal));
    testbed::record_reader r(journal, "fp", testbed::record_reader::mode::journal);
    testbed::epoch_record rec;
    std::size_t n = 0;
    while (r.next(rec)) ++n;
    EXPECT_EQ(n, 1u);
    {
        testbed::record_writer w(file, journal, "fp", {}, &r);
        w.append(testbed::epoch_record{});
        w.abort();
    }
    EXPECT_TRUE(std::filesystem::exists(journal));
    EXPECT_FALSE(std::filesystem::exists(file));
}

// --- a CSV output: the export of a staging store ---------------------------

TEST_F(record_store, failed_csv_export_leaves_neither_file) {
    const auto cfg = faulty_config();
    const auto csv = dir_ / "c.csv";
    const auto store = testbed::csv_staging_store(csv);
    EXPECT_NE(store, testbed::same_dir_temp(csv));
    EXPECT_NE(testbed::same_dir_temp(store), testbed::same_dir_temp(csv));

    // A store the reader refuses at the end of its records (a footer that
    // lies about the faulted count): the CSV temp and the store both go.
    ASSERT_TRUE(testbed::run_campaign_streamed(cfg, store).complete);
    std::string bytes = read_file(store);
    const std::size_t faulted_at = bytes.rfind(',', bytes.rfind("\nend,")) + 1;
    ASSERT_NE(bytes[faulted_at], '0');
    bytes.replace(faulted_at, 1, "0");
    std::ofstream(store, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_THROW(testbed::export_store_to_csv(store, csv), testbed::dataset_error);
    EXPECT_TRUE(std::filesystem::is_empty(dir_));

    // A CSV that cannot be put in place (its name is a directory).
    ASSERT_TRUE(testbed::run_campaign_streamed(cfg, store).complete);
    std::filesystem::create_directory(csv);
    EXPECT_THROW(testbed::export_store_to_csv(store, csv), std::runtime_error);
    EXPECT_FALSE(std::filesystem::exists(store));
    EXPECT_TRUE(std::filesystem::is_directory(csv));
    EXPECT_TRUE(std::filesystem::is_empty(csv));
    std::filesystem::remove(csv);
    EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(record_store, filtered_run_keeps_its_journal_unfinished) {
    // A shard's journal is its product: a complete filtered run flushes it
    // and keeps it, finishes no store, and a rerun with nothing left to do
    // keeps it as it was.
    const auto cfg = quick_config();
    testbed::campaign_run_options opts;
    opts.checkpoint = dir_ / "s.ckpt";
    opts.checkpoint_every = 1000;
    opts.epoch_filter = testbed::shard_filter(testbed::shard_ref{1, 2});
    ASSERT_TRUE(testbed::run_campaign_streamed(cfg, {}, opts).complete);
    const std::string journal = read_file(opts.checkpoint);
    EXPECT_THROW(testbed::record_reader r(opts.checkpoint), testbed::dataset_error);
    opts.resume = true;
    const auto again = testbed::run_campaign_streamed(cfg, {}, opts);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(static_cast<std::size_t>(again.epochs_resumed),
              testbed::shard_size(testbed::campaign_total_epochs(cfg),
                                  testbed::shard_ref{1, 2}));
    EXPECT_EQ(read_file(opts.checkpoint), journal);
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator(dir_)) ++entries;
    EXPECT_EQ(entries, 1u);
}

// --- the figure cache (load_or_run) ----------------------------------------

class figure_cache : public record_store {
protected:
    /// `data` as store bytes: hexfloats, so equal bytes mean bitwise-equal
    /// records (NaNs, events and sim_time_s included) and catalogues.
    std::string bits_of(const testbed::dataset& data) {
        return read_file(write_store(data, "bits", "bits.store"));
    }

    /// Overwrite field `field` of `file`'s fingerprint line with `value`.
    static void set_fingerprint_field(const std::filesystem::path& file, std::size_t field,
                                      const std::string& value) {
        std::string bytes = read_file(file);
        const std::size_t line = bytes.find("\nfingerprint,") + 13;
        const std::size_t line_end = bytes.find('\n', line);
        std::vector<std::string> f =
            testbed::split_fields(bytes.substr(line, line_end - line), '|');
        f.at(field) = value;
        std::string joined;
        for (const std::string& v : f) joined += (joined.empty() ? "" : "|") + v;
        bytes.replace(line, line_end - line, joined);
        std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
    }

    /// load_or_run with its stderr captured into `err`.
    static testbed::dataset load_capturing(const testbed::campaign_config& cfg,
                                           const std::filesystem::path& file,
                                           std::string& err) {
        ::testing::internal::CaptureStderr();
        testbed::dataset data = testbed::load_or_run(cfg, file);
        err = ::testing::internal::GetCapturedStderr();
        return data;
    }

    const obs::counter epochs_run_ = obs::counter::get("campaign.epochs_run");
};

TEST_F(figure_cache, cold_and_warm_runs_return_bitwise_equal_records) {
    // Faulted, so NaN measurements and the fault column are covered.
    const auto cfg = faulty_config();
    const auto file = dir_ / "cache" / "c.store";
    const testbed::dataset cold = testbed::load_or_run(cfg, file);
    ASSERT_TRUE(std::filesystem::exists(file));
    const testbed::dataset warm = testbed::load_or_run(cfg, file);
    ASSERT_EQ(warm.records.size(), testbed::campaign_total_epochs(cfg));
    EXPECT_EQ(bits_of(cold), bits_of(warm));

    // Both are what load_csv reads from the cache's CSV export.
    testbed::record_reader reader(file);
    const auto csv = dir_ / "c.csv";
    testbed::store_to_csv(reader, csv);
    EXPECT_EQ(bits_of(testbed::load_csv(csv)), bits_of(warm));
}

TEST_F(figure_cache, matching_cache_is_read_without_simulating) {
    const auto cfg = quick_config();
    const auto file = dir_ / "c.store";
    std::uint64_t before = epochs_run_.value();
    (void)testbed::load_or_run(cfg, file);
    EXPECT_EQ(epochs_run_.value() - before, testbed::campaign_total_epochs(cfg));
    const std::string cached = read_file(file);

    before = epochs_run_.value();
    std::string err;
    (void)load_capturing(cfg, file, err);
    EXPECT_EQ(epochs_run_.value(), before);
    EXPECT_EQ(err, "");
    EXPECT_EQ(read_file(file), cached);
}

TEST_F(figure_cache, cache_of_another_seed_is_regenerated_naming_the_field) {
    const auto cfg = quick_config();
    const auto fresh = testbed::load_or_run(cfg, dir_ / "fresh.store");
    auto other = cfg;
    other.seed = 7;
    const auto file = dir_ / "c.store";
    (void)testbed::load_or_run(other, file);

    const std::uint64_t before = epochs_run_.value();
    std::string err;
    const testbed::dataset data = load_capturing(cfg, file, err);
    EXPECT_NE(err.find("seed: store=7 requested=" + std::to_string(cfg.seed)),
              std::string::npos)
        << err;
    EXPECT_EQ(epochs_run_.value() - before, testbed::campaign_total_epochs(cfg));
    EXPECT_EQ(bits_of(data), bits_of(fresh));
    EXPECT_EQ(read_file(file), read_file(dir_ / "fresh.store"));
}

TEST_F(figure_cache, cache_of_another_simulator_revision_is_regenerated) {
    const auto cfg = quick_config();
    const auto file = dir_ / "c.store";
    const testbed::dataset fresh = testbed::load_or_run(cfg, file);
    const std::string cached = read_file(file);
    // Field 1 of the fingerprint is the simulator revision.
    const std::string older = std::to_string(testbed::k_simulator_revision - 1);
    set_fingerprint_field(file, 1, older);
    ASSERT_NE(read_file(file), cached);

    const std::uint64_t before = epochs_run_.value();
    std::string err;
    const testbed::dataset data = load_capturing(cfg, file, err);
    EXPECT_NE(err.find("simulator_revision: store=" + older + " requested=" +
                       std::to_string(testbed::k_simulator_revision)),
              std::string::npos)
        << err;
    EXPECT_EQ(epochs_run_.value() - before, testbed::campaign_total_epochs(cfg));
    EXPECT_EQ(bits_of(data), bits_of(fresh));
    EXPECT_EQ(read_file(file), cached);
}

TEST_F(figure_cache, corrupt_cache_is_regenerated) {
    const auto cfg = quick_config();
    const auto file = dir_ / "c.store";
    const testbed::dataset fresh = testbed::load_or_run(cfg, file);
    const std::string cached = read_file(file);
    std::ofstream(file, std::ios::binary | std::ios::trunc) << cached.substr(0, cached.size() / 2);

    std::string err;
    const testbed::dataset data = load_capturing(cfg, file, err);
    EXPECT_NE(err.find("unfinished journal"), std::string::npos) << err;
    EXPECT_EQ(bits_of(data), bits_of(fresh));
    EXPECT_EQ(read_file(file), cached);
}

}  // namespace
