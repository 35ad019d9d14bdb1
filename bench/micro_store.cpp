// google-benchmark micro-benchmarks for the record store
// (testbed/record_store.hpp): sequential ingest rate through record_writer,
// scan rate through record_reader — the two cursors every past-RAM campaign
// and analysis pass is built on — and one journal flush through the same
// writer. Records are synthetic (filled from the index, no simulation) so
// the numbers isolate serialization cost. The scan runs on a clean store and
// on a faulted one, where every 8th record carries NaN measurements and a
// fault flag, as failed probes leave them.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "testbed/dataset.hpp"
#include "testbed/record_store.hpp"

using namespace tcppred;

namespace {

constexpr std::size_t k_records = 4096;

testbed::epoch_record synthetic_record(std::size_t i, bool faulted = false) {
    testbed::epoch_record r;
    r.path_id = static_cast<int>(i / (k_records / 4));
    r.trace_id = 0;
    r.epoch_index = static_cast<int>(i % (k_records / 4));
    const double x = static_cast<double>(i + 1);
    r.m.avail_bw_bps = 5e6 + x;
    r.m.phat = 0.01 + 1.0 / x;
    r.m.phat_events = 17;
    r.m.that_s = 0.08 + 0.001 / x;
    r.m.ptilde = 0.02 + 1.0 / x;
    r.m.ttilde_s = 0.09;
    r.m.r_large_bps = 4e6 + x;
    r.m.r_small_bps = 1e6 + x;
    r.m.tcp_loss_rate = 0.005;
    r.m.tcp_event_rate = 0.004;
    r.m.tcp_mean_rtt_s = 0.081;
    r.m.sim_time_s = 12.5;
    r.m.events = 100000 + i;
    r.m.prefix_goodputs = {{2.0, 3e6 + x}, {5.0, 3.5e6 + x}, {10.0, 3.8e6 + x}};
    if (faulted && i % 8 == 0) {
        // Both NaN signs: hexd prints "nan" and "-nan".
        const double nan = std::numeric_limits<double>::quiet_NaN();
        r.m.avail_bw_bps = nan;
        r.m.phat = -nan;
        r.m.phat_events = -nan;
        r.m.that_s = -nan;
        r.m.fault_flags = testbed::fault_pathload_failed | testbed::fault_ping_degraded;
    }
    return r;
}

std::filesystem::path bench_store_path() {
    // Named per process, so concurrent runs never clobber each other's store.
    static const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("tcppred_micro_store." + std::to_string(::getpid()) + ".store");
    return path;
}

void write_bench_store(bool faulted = false) {
    testbed::record_writer w(bench_store_path(), "micro-bench-fingerprint", {});
    for (std::size_t i = 0; i < k_records; ++i) w.append(synthetic_record(i, faulted));
    w.finish();
}

void bm_store_ingest(benchmark::State& state) {
    for (auto _ : state) {
        write_bench_store();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_records));
    std::filesystem::remove(bench_store_path());
}
BENCHMARK(bm_store_ingest);

void bm_store_scan(benchmark::State& state, bool faulted) {
    write_bench_store(faulted);
    for (auto _ : state) {
        testbed::record_reader r(bench_store_path());
        testbed::epoch_record rec;
        std::size_t n = 0;
        while (r.next(rec)) ++n;
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_records));
    std::filesystem::remove(bench_store_path());
}
BENCHMARK_CAPTURE(bm_store_scan, clean, false);
BENCHMARK_CAPTURE(bm_store_scan, faulted, true);

constexpr std::size_t k_flush = 32;  // records per flush at --checkpoint-every 32

std::filesystem::path bench_journal_path() {
    static const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("tcppred_micro_store." + std::to_string(::getpid()) + ".ckpt");
    return path;
}

/// One journal flush of 32 new records into a journal that already holds
/// state.range(0) records, through the writer a resumed run reopens: the
/// sweep's per-flush cost, which must not grow with the journal. The file
/// is cut back to its starting size, untimed, after every flush.
void bm_journal_append(benchmark::State& state) {
    const auto done = static_cast<std::size_t>(state.range(0));
    const std::filesystem::path file = bench_journal_path();
    {
        testbed::record_writer fresh({}, file, "micro-bench-fingerprint", {});
        for (std::size_t i = 0; i < done; ++i) fresh.append(synthetic_record(i));
        fresh.flush();
    }
    const auto base = std::filesystem::file_size(file);
    testbed::record_reader prefix(file, {}, testbed::record_reader::mode::journal);
    testbed::epoch_record rec;
    while (prefix.next(rec)) {
    }
    std::vector<testbed::epoch_record> batch;
    for (std::size_t i = done; i < done + k_flush; ++i) batch.push_back(synthetic_record(i));
    testbed::record_writer journal({}, file, "micro-bench-fingerprint", {}, &prefix);
    for (auto _ : state) {
        for (const testbed::epoch_record& r : batch) journal.append(r);
        journal.flush();
        state.PauseTiming();
        std::filesystem::resize_file(file, base);
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_flush));
    std::filesystem::remove(file);
}
BENCHMARK(bm_journal_append)->Arg(1024)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
