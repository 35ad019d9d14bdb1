// The serve layer (src/serve/): the request parser's rejection of hostile
// input, the path table's bitwise equivalence with the offline
// evaluation_engine, snapshot round-trip/refusal, concurrent determinism
// over disjoint paths and snapshots cut while paths change (both run under
// TSan in CI), and the server's response grammar through handle_line,
// failed snapshots included.
#include "serve/path_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/evaluation.hpp"
#include "core/predictor_registry.hpp"
#include "obs/counters.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "testbed/campaign.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"

using namespace tcppred;

namespace {

/// Small faulted campaign: fault flags, NaN measurement fields and gap
/// epochs all flow through the protocol / snapshot round-trips.
testbed::campaign_config tiny_config() {
    testbed::campaign_config cfg;
    cfg.paths = 3;
    cfg.traces_per_path = 2;
    cfg.epochs_per_trace = 8;
    cfg.jobs = 1;
    cfg.epoch.warmup = core::seconds{0.5};
    cfg.epoch.prior_ping.count = 60;
    cfg.epoch.transfer = core::seconds{1.5};
    cfg.faults = sim::fault_profile::parse("pathload=0.2,ping-timeout=0.1,abort=0.1");
    return cfg;
}

serve::observation obs_of(const testbed::epoch_record& rec) {
    serve::observation ev;
    ev.epoch = rec.epoch_index;
    ev.avail_bw_bps = rec.m.avail_bw_bps;
    ev.phat = rec.m.phat;
    ev.phat_events = rec.m.phat_events;
    ev.that_s = rec.m.that_s;
    ev.r_large_bps = rec.m.r_large_bps;
    ev.fault_flags = rec.m.fault_flags;
    return ev;
}

std::string key_of(int path_id, int trace_id) {
    return "p" + std::to_string(path_id) + ".t" + std::to_string(trace_id);
}

/// Bit-exact double equality (NaN == NaN) — the serve contract is bitwise.
void expect_bits_equal(double a, double b) {
    if (std::isnan(a) && std::isnan(b)) return;
    EXPECT_EQ(a, b);
}

/// FB, plain HB and every LSO-wrapped kind: a new path's specs are cloned
/// into one share, so its LSO wrappers run one filter between them.
const std::vector<std::string> k_lso_mix{"fb:pftk", "10-MA",    "0.8-HW-LSO",
                                         "NWS",     "hybrid:0.8-HW-LSO", "5-AR-LSO"};

std::string read_file(const std::filesystem::path& file) {
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class serve_fixture : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("tcppred_serve_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

}  // namespace

// --- protocol --------------------------------------------------------------

TEST(serve_protocol, parses_valid_requests) {
    const auto req = serve::parse_request_line(
        "OBSERVE p0.t1 7 0x1.8p+20 0.01 0.005 0.08 0x1.2p+20 3");
    EXPECT_EQ(req.kind, serve::request_kind::observe);
    EXPECT_EQ(req.path, "p0.t1");
    EXPECT_EQ(req.obs.epoch, 7);
    EXPECT_EQ(req.obs.avail_bw_bps, 1572864.0);
    EXPECT_EQ(req.obs.phat, 0.01);
    EXPECT_EQ(req.obs.fault_flags, 3u);

    const auto pr = serve::parse_request_line("PREDICT a/b:c fb:pftk");
    EXPECT_EQ(pr.kind, serve::request_kind::predict);
    EXPECT_EQ(pr.path, "a/b:c");
    EXPECT_EQ(pr.spec, "fb:pftk");

    EXPECT_EQ(serve::parse_request_line("STATS").kind, serve::request_kind::stats);
    EXPECT_EQ(serve::parse_request_line("SNAPSHOT").kind,
              serve::request_kind::snapshot);
}

TEST(serve_protocol, nan_marks_faulted_fields) {
    const auto req =
        serve::parse_request_line("OBSERVE p 0 nan nan nan nan nan 1");
    EXPECT_TRUE(std::isnan(req.obs.avail_bw_bps));
    EXPECT_TRUE(std::isnan(req.obs.phat));
    EXPECT_TRUE(std::isnan(req.obs.r_large_bps));
}

TEST(serve_protocol, rejects_malformed_lines) {
    const auto rejects = [](std::string_view line) {
        EXPECT_THROW((void)serve::parse_request_line(line), serve::protocol_error)
            << "line: " << line;
    };
    rejects("");
    rejects("   ");
    rejects("FROBNICATE p");
    rejects("observe p 0 1 0 0 1 1 0");  // verbs are case-sensitive
    rejects("OBSERVE");
    rejects("OBSERVE p 0 1 0 0 1 1");          // missing flags
    rejects("OBSERVE p 0 1 0 0 1 1 0 extra");  // trailing field
    rejects("OBSERVE p x 1 0 0 1 1 0");        // bad epoch
    rejects("OBSERVE p -1 1 0 0 1 1 0");       // negative epoch
    rejects("OBSERVE p 0 1 1.5 0 1 1 0");      // loss rate > 1
    rejects("OBSERVE p 0 1 -0.1 0 1 1 0");     // loss rate < 0
    rejects("OBSERVE p 0 inf 0 0 1 1 0");      // inf is not a measurement
    rejects("OBSERVE p 0 1 0 0 1 1 4294967296");  // flags past 32 bits
    rejects("OBSERVE p 0 1 0 0 1 1 banana");
    rejects("PREDICT p");
    rejects("PREDICT p fb:pftk extra");
    rejects("STATS extra");
    rejects("OBSERVE bad,path 0 1 0 0 1 1 0");  // ',' breaks snapshot lines
    rejects(std::string("OBSERVE ") + std::string(300, 'a') + " 0 1 0 0 1 1 0");
    rejects("OBSERVE p\x01q 0 1 0 0 1 1 0");  // control bytes
}

TEST(serve_protocol, rejects_oversized_lines) {
    std::string line = "PREDICT p ";
    line.append(serve::k_max_line_bytes, 'x');
    EXPECT_THROW((void)serve::parse_request_line(line), serve::protocol_error);
}

TEST(serve_protocol, format_observe_round_trips_bitwise) {
    serve::observation ev;
    ev.epoch = 41;
    ev.avail_bw_bps = 1234567.890123;
    ev.phat = 0.0123456789;
    ev.phat_events = std::nan("");
    ev.that_s = 0.0801234;
    ev.r_large_bps = 987654.321;
    ev.fault_flags = 0x13;
    const auto req = serve::parse_request_line(serve::format_observe("p1.t2", ev));
    EXPECT_EQ(req.path, "p1.t2");
    EXPECT_EQ(req.obs.epoch, ev.epoch);
    expect_bits_equal(req.obs.avail_bw_bps, ev.avail_bw_bps);
    expect_bits_equal(req.obs.phat, ev.phat);
    expect_bits_equal(req.obs.phat_events, ev.phat_events);
    expect_bits_equal(req.obs.that_s, ev.that_s);
    expect_bits_equal(req.obs.r_large_bps, ev.r_large_bps);
    EXPECT_EQ(req.obs.fault_flags, ev.fault_flags);
}

TEST(serve_protocol, validates_path_names) {
    EXPECT_TRUE(serve::valid_path_name("p0.t1"));
    EXPECT_TRUE(serve::valid_path_name("host-a:eth0/14"));
    EXPECT_FALSE(serve::valid_path_name(""));
    EXPECT_FALSE(serve::valid_path_name("has space"));
    EXPECT_FALSE(serve::valid_path_name("has,comma"));
    EXPECT_FALSE(serve::valid_path_name(std::string(257, 'a')));
}

// --- path table ------------------------------------------------------------

TEST(serve_path_table, rejects_bad_spec_up_front) {
    EXPECT_THROW(serve::path_table({"fb:pftk", "not-a-spec"}),
                 core::predictor_spec_error);
}

TEST(serve_path_table, predict_statuses) {
    serve::path_table table({"fb:pftk"});
    EXPECT_EQ(table.predict("nope", "fb:pftk").st,
              serve::predict_reply::status::unknown_path);
    serve::observation ev;
    ev.avail_bw_bps = 1e6;
    ev.phat = 0.01;
    ev.that_s = 0.08;
    ev.r_large_bps = 9e5;
    EXPECT_EQ(table.observe("p", ev), 1u);
    EXPECT_EQ(table.predict("p", "other").st,
              serve::predict_reply::status::unknown_spec);
    const auto ok = table.predict("p", "fb:pftk");
    EXPECT_EQ(ok.st, serve::predict_reply::status::ok);
    EXPECT_EQ(ok.epoch, 0);
}

TEST(serve_path_table, replay_is_bitwise_equal_to_offline_engine) {
    // The tentpole's correctness anchor, in-process: replaying a faulted
    // campaign observation-by-observation yields cached forecasts bitwise
    // identical to analysis::evaluation_engine over the same records —
    // across FB, HB and LSO-wrapped predictors, at several shard counts.
    const testbed::dataset data = testbed::run_campaign(tiny_config());
    const std::vector<std::string>& specs = k_lso_mix;
    const analysis::evaluation_engine engine;
    const auto offline = engine.run(data, specs);

    for (const std::size_t shards : {1u, 8u}) {
        serve::path_table table(specs, {}, shards);
        // live[(path,trace)][spec] = forecast captured after each OBSERVE.
        std::map<std::pair<int, int>, std::vector<std::vector<double>>> live;
        for (const auto& [key, recs] : data.traces()) {
            const std::string path = key_of(key.first, key.second);
            auto& per_spec = live[key];
            per_spec.resize(specs.size());
            for (const testbed::epoch_record* rec : recs) {
                table.observe(path, obs_of(*rec));
                for (std::size_t j = 0; j < specs.size(); ++j) {
                    const auto reply = table.predict(path, specs[j]);
                    ASSERT_EQ(reply.st, serve::predict_reply::status::ok);
                    EXPECT_EQ(reply.epoch, rec->epoch_index);
                    per_spec[j].push_back(reply.value.value_bps);
                }
            }
        }
        EXPECT_EQ(table.observations(), data.records.size());
        std::size_t compared = 0;
        for (std::size_t j = 0; j < specs.size(); ++j) {
            for (const analysis::trace_result& tr : offline[j].traces) {
                const auto it = live.find({tr.path_id, tr.trace_id});
                ASSERT_NE(it, live.end());
                for (const analysis::epoch_score& sc : tr.epochs) {
                    ASSERT_LT(sc.index, it->second[j].size());
                    EXPECT_EQ(it->second[j][sc.index], sc.predicted_bps)
                        << offline[j].name << " trace (" << tr.path_id << ","
                        << tr.trace_id << ") epoch " << sc.index;
                    ++compared;
                }
            }
        }
        EXPECT_GT(compared, 0u) << "engine scored nothing — vacuous test";
    }
}

TEST(serve_path_table, predict_accepts_canonical_name_alias) {
    serve::path_table table({"fb:pftk"});
    serve::observation ev;
    ev.avail_bw_bps = 1e6;
    ev.phat = 0.01;
    ev.that_s = 0.08;
    ev.r_large_bps = 9e5;
    table.observe("p", ev);
    const auto by_spec = table.predict("p", "fb:pftk");
    const auto by_name = table.predict("p", table.spec_names()[0]);
    EXPECT_EQ(by_name.st, serve::predict_reply::status::ok);
    expect_bits_equal(by_spec.value.value_bps, by_name.value.value_bps);
}

// --- snapshots -------------------------------------------------------------

TEST_F(serve_fixture, snapshot_round_trip_is_bitwise) {
    const testbed::dataset data = testbed::run_campaign(tiny_config());
    const std::vector<std::string> specs{"fb:pftk", "10-MA"};
    serve::path_table a(specs);
    for (const auto& [key, recs] : data.traces()) {
        const std::string path = key_of(key.first, key.second);
        for (const testbed::epoch_record* rec : recs) a.observe(path, obs_of(*rec));
    }
    const std::string rendered = serve::render_snapshot(a);
    const auto file = dir_ / "snap.txt";
    serve::write_snapshot(a, file);

    serve::path_table b(specs);
    const auto st = serve::load_snapshot(b, file);
    EXPECT_EQ(st.events, a.observations());
    EXPECT_EQ(st.paths, a.path_count());
    // Re-rendering the restored table reproduces the file byte for byte,
    // and the cached forecasts carry over bitwise.
    EXPECT_EQ(serve::render_snapshot(b), rendered);
    for (const auto& [key, recs] : data.traces()) {
        const std::string path = key_of(key.first, key.second);
        for (const std::string& spec : specs) {
            const auto ra = a.predict(path, spec);
            const auto rb = b.predict(path, spec);
            ASSERT_EQ(ra.st, serve::predict_reply::status::ok);
            ASSERT_EQ(rb.st, serve::predict_reply::status::ok);
            EXPECT_EQ(ra.epoch, rb.epoch);
            expect_bits_equal(ra.value.value_bps, rb.value.value_bps);
        }
    }
}

TEST_F(serve_fixture, snapshot_refuses_mismatched_specs_and_garbage) {
    const std::vector<std::string> specs{"fb:pftk"};
    serve::path_table a(specs);
    serve::observation ev;
    ev.avail_bw_bps = 1e6;
    ev.phat = 0.01;
    ev.that_s = 0.08;
    ev.r_large_bps = 9e5;
    a.observe("p", ev);
    const auto file = dir_ / "snap.txt";
    serve::write_snapshot(a, file);

    serve::path_table other({"fb:pftk", "10-MA"});
    EXPECT_THROW((void)serve::load_snapshot(other, file), testbed::dataset_error);

    const auto variant = [&](const std::string& content) {
        const auto p = dir_ / "variant.txt";
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out << content;
        return p;
    };
    const std::string whole = read_file(file);
    // Truncations at several depths — all refused, never half-applied.
    for (const double frac : {0.8, 0.3}) {
        serve::path_table t(specs);
        EXPECT_THROW(
            (void)serve::load_snapshot(
                t, variant(whole.substr(
                       0, static_cast<std::size_t>(
                              static_cast<double>(whole.size()) * frac)))),
            testbed::dataset_error)
            << "frac=" << frac;
    }
    serve::path_table t2(specs);
    EXPECT_THROW((void)serve::load_snapshot(t2, variant("not a snapshot\n")),
                 testbed::dataset_error);
    serve::path_table t3(specs);
    EXPECT_THROW((void)serve::load_snapshot(t3, dir_ / "missing.txt"),
                 testbed::dataset_error);
}

// --- concurrency -----------------------------------------------------------

TEST(serve_path_table, concurrent_disjoint_paths_match_serial_replay) {
    // Per-path state depends only on that path's observation order, so any
    // thread interleaving over disjoint paths must reach the same table
    // state — log and cached forecasts — as a serial replay. Run under TSan
    // in CI; also pins that the striped locking actually serializes per-path
    // work.
    const testbed::dataset data = testbed::run_campaign(tiny_config());
    const std::vector<std::string>& specs = k_lso_mix;
    const auto traces = data.traces();

    serve::path_table serial(specs);
    for (const auto& [key, recs] : traces) {
        const std::string path = key_of(key.first, key.second);
        for (const testbed::epoch_record* rec : recs) {
            serial.observe(path, obs_of(*rec));
        }
    }

    for (int round = 0; round < 4; ++round) {
        serve::path_table table(specs, {}, 2);  // fewer shards than threads
        std::vector<std::thread> threads;
        threads.reserve(traces.size());
        for (const auto& [key, recs] : traces) {
            threads.emplace_back([&table, key = key, recs = recs] {
                const std::string path = key_of(key.first, key.second);
                for (const testbed::epoch_record* rec : recs) {
                    table.observe(path, obs_of(*rec));
                }
            });
        }
        for (auto& t : threads) t.join();
        EXPECT_EQ(serve::render_snapshot(table), serve::render_snapshot(serial));
        for (const auto& [key, recs] : traces) {
            const std::string path = key_of(key.first, key.second);
            for (const std::string& spec : specs) {
                const auto got = table.predict(path, spec);
                const auto want = serial.predict(path, spec);
                ASSERT_EQ(got.st, want.st) << path << " " << spec;
                EXPECT_EQ(got.epoch, want.epoch) << path << " " << spec;
                expect_bits_equal(got.value.value_bps, want.value.value_bps);
            }
        }
    }
}

TEST_F(serve_fixture, streamed_snapshot_is_a_consistent_cut) {
    // Two threads OBSERVE disjoint paths while a third writes snapshots.
    // Each file must be one cut of the table: it loads into a fresh table
    // (whose own count checks pass) that re-renders it byte for byte, and
    // its paths/end lines count its own path/ev lines. Every epoch also
    // creates a path, so a path count taken apart from the walk would
    // disagree with it. Run under TSan in CI.
    const std::vector<std::string> specs{"fb:pftk", "10-MA", "0.8-HW-LSO"};
    serve::path_table table(specs, {}, 4);
    std::atomic<bool> snapshotting{false};
    std::atomic<int> writers_done{0};
    const auto writer = [&](const std::string& prefix) {
        while (!snapshotting.load()) std::this_thread::yield();
        for (int e = 0; e < 40; ++e) {
            for (int p = 0; p <= 6; ++p) {
                serve::observation ev;
                ev.epoch = e;
                ev.avail_bw_bps = 1e6 + 1e3 * (e % 7) + p;
                ev.phat = 0.01 + 1e-4 * (e % 5);
                ev.that_s = 0.08;
                ev.r_large_bps = 9e5 + 1e3 * (e % 3) + p;
                table.observe(prefix + (p < 6 ? std::to_string(p) : "new" + std::to_string(e)),
                              ev);
            }
        }
        writers_done.fetch_add(1);
    };
    std::vector<std::filesystem::path> files;
    std::thread snapshotter([&] {
        snapshotting.store(true);
        do {
            files.push_back(dir_ / ("cut-" + std::to_string(files.size()) + ".snap"));
            serve::write_snapshot(table, files.back());
        } while (writers_done.load() < 2);
    });
    std::thread a(writer, "a.");
    std::thread b(writer, "b.");
    a.join();
    b.join();
    snapshotter.join();
    ASSERT_GE(files.size(), 1u);

    for (const std::filesystem::path& file : files) {
        const std::string text = read_file(file);
        serve::path_table back(specs);
        const serve::snapshot_stats st = serve::load_snapshot(back, file);
        EXPECT_EQ(serve::render_snapshot(back), text) << file;
        std::uint64_t declared_paths = 0;
        std::uint64_t declared_events = 0;
        std::uint64_t path_lines = 0;
        std::uint64_t ev_lines = 0;
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("paths,", 0) == 0) declared_paths = std::stoull(line.substr(6));
            if (line.rfind("end,", 0) == 0) declared_events = std::stoull(line.substr(4));
            if (line.rfind("path,", 0) == 0) ++path_lines;
            if (line.rfind("ev,", 0) == 0) ++ev_lines;
        }
        EXPECT_EQ(declared_paths, path_lines) << file;
        EXPECT_EQ(declared_events, ev_lines) << file;
        EXPECT_EQ(st.paths, path_lines) << file;
        EXPECT_EQ(st.events, ev_lines) << file;
    }
    // Quiescent, the published file and the rendered string are one text.
    const auto quiet = dir_ / "quiet.snap";
    serve::write_snapshot(table, quiet);
    EXPECT_EQ(read_file(quiet), serve::render_snapshot(table));
    EXPECT_EQ(table.observations(), 2u * 40u * 7u);
    EXPECT_EQ(table.path_count(), 2u * (6u + 40u));
}

// --- server response grammar ----------------------------------------------

TEST_F(serve_fixture, server_handle_line_grammar) {
    const std::vector<std::string> specs{"fb:pftk"};
    serve::path_table table(specs);
    serve::server_config cfg;
    cfg.unix_socket = (dir_ / "t.sock").string();
    cfg.snapshot_file = dir_ / "snap.txt";
    serve::server srv(table, cfg);

    EXPECT_EQ(srv.handle_line("OBSERVE p 0 0x1.8p+20 0.01 0.005 0.08 0x1.2p+20 0"),
              "OK");
    const std::string reply = srv.handle_line("PREDICT p fb:pftk");
    EXPECT_EQ(reply.substr(0, 3), "OK ");
    // OK <hexfloat> <status> <source> <staleness> <epoch>
    EXPECT_NE(reply.find(" ok "), std::string::npos) << reply;
    EXPECT_EQ(reply.substr(reply.size() - 2), " 0") << reply;

    EXPECT_EQ(srv.handle_line("PREDICT q fb:pftk"), "ERR unknown path");
    EXPECT_EQ(srv.handle_line("PREDICT p 9-EWMA"),
              "ERR unknown spec (not in this daemon's --specs)");
    const std::string stats = srv.handle_line("STATS");
    EXPECT_EQ(stats.substr(0, 3), "OK ");
    EXPECT_NE(stats.find("paths=1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("observations=1"), std::string::npos) << stats;

    EXPECT_EQ(srv.handle_line("SNAPSHOT"), "OK");
    EXPECT_TRUE(std::filesystem::exists(cfg.snapshot_file));

    const std::string err = srv.handle_line("OBSERVE p not-an-epoch 1 0 0 1 1 0");
    EXPECT_EQ(err.substr(0, 4), "ERR ");
    EXPECT_NE(err.find("epoch"), std::string::npos) << err;
}

TEST_F(serve_fixture, server_snapshot_without_file_is_an_error) {
    serve::path_table table({"fb:pftk"});
    serve::server_config cfg;
    cfg.unix_socket = (dir_ / "t.sock").string();
    serve::server srv(table, cfg);
    EXPECT_EQ(srv.handle_line("SNAPSHOT"),
              "ERR no snapshot file configured (--snapshot)");
}

TEST_F(serve_fixture, failed_snapshot_answers_err_and_keeps_serving) {
    static const obs::counter c_errors = obs::counter::get("serve.request_errors");
    serve::path_table table({"fb:pftk"});
    serve::server_config cfg;
    cfg.unix_socket = (dir_ / "t.sock").string();
    cfg.snapshot_file = dir_ / "snap.txt";
    serve::server srv(table, cfg);
    ASSERT_EQ(srv.handle_line("OBSERVE p 0 0x1.8p+20 0.01 0.005 0.08 0x1.2p+20 0"), "OK");
    ASSERT_EQ(srv.handle_line("SNAPSHOT"), "OK");
    const std::string before = read_file(cfg.snapshot_file);

    // A directory where the snapshot's temp file goes: the write fails
    // before anything is renamed.
    const auto blocker = testbed::same_dir_temp(cfg.snapshot_file);
    std::filesystem::create_directories(blocker / "keep");
    ASSERT_EQ(srv.handle_line("OBSERVE p 1 0x1.8p+20 0.01 0.005 0.08 0x1.2p+20 0"), "OK");
    const std::uint64_t errors = c_errors.value();
    const std::string reply = srv.handle_line("SNAPSHOT");
    EXPECT_EQ(reply.rfind("ERR snapshot failed: ", 0), 0u) << reply;
    EXPECT_NE(reply.find(cfg.snapshot_file.filename().string()), std::string::npos) << reply;
    EXPECT_EQ(reply.find('\n'), std::string::npos) << reply;
    EXPECT_EQ(c_errors.value(), errors + 1);
    EXPECT_EQ(read_file(cfg.snapshot_file), before);

    // The same server keeps serving, and snapshots again once it can.
    EXPECT_EQ(srv.handle_line("OBSERVE p 2 0x1.8p+20 0.01 0.005 0.08 0x1.2p+20 0"), "OK");
    EXPECT_EQ(srv.handle_line("STATS").substr(0, 3), "OK ");
    std::filesystem::remove_all(blocker);
    EXPECT_EQ(srv.handle_line("SNAPSHOT"), "OK");
    serve::path_table back({"fb:pftk"});
    EXPECT_EQ(serve::load_snapshot(back, cfg.snapshot_file).events, 3u);
}

TEST_F(serve_fixture, failed_periodic_snapshot_still_answers_ok) {
    // The OBSERVE that triggers a periodic snapshot is applied before the
    // write: answering ERR would make a retrying client apply it twice.
    static const obs::counter c_failures = obs::counter::get("serve.snapshot_failures");
    serve::path_table table({"fb:pftk"});
    serve::server_config cfg;
    cfg.unix_socket = (dir_ / "t.sock").string();
    cfg.snapshot_file = dir_ / "missing-dir" / "snap.txt";
    cfg.snapshot_every = 1;
    serve::server srv(table, cfg);
    const std::uint64_t failures = c_failures.value();
    EXPECT_EQ(srv.handle_line("OBSERVE p 0 0x1.8p+20 0.01 0.005 0.08 0x1.2p+20 0"), "OK");
    EXPECT_EQ(c_failures.value(), failures + 1);
    EXPECT_EQ(table.observations(), 1u);
    const std::string reply = srv.handle_line("SNAPSHOT");
    EXPECT_EQ(reply.rfind("ERR snapshot failed: ", 0), 0u) << reply;
    EXPECT_EQ(c_failures.value(), failures + 1);  // a SNAPSHOT request is not periodic
    EXPECT_FALSE(std::filesystem::exists(dir_ / "missing-dir"));
}
