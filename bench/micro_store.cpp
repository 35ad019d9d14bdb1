// google-benchmark micro-benchmarks for the chunked record store
// (testbed/record_store.hpp): sequential ingest rate through record_writer
// and scan rate through record_reader — the two cursors every past-RAM
// campaign and analysis pass is built on. Records are synthetic (filled
// from the index, no simulation) so the numbers isolate serialization cost.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "testbed/dataset.hpp"
#include "testbed/record_store.hpp"

using namespace tcppred;

namespace {

constexpr std::size_t k_records = 4096;
constexpr std::size_t k_chunk = 512;

testbed::epoch_record synthetic_record(std::size_t i) {
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
    return r;
}

std::filesystem::path bench_store_path() {
    // Named per process, so concurrent runs never clobber each other's store.
    static const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("tcppred_micro_store." + std::to_string(::getpid()) + ".store");
    return path;
}

void write_bench_store() {
    testbed::record_writer w(bench_store_path(), "micro-bench-fingerprint", {},
                             testbed::store_options{k_chunk});
    for (std::size_t i = 0; i < k_records; ++i) w.append(synthetic_record(i));
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

void bm_store_scan(benchmark::State& state) {
    write_bench_store();
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
BENCHMARK(bm_store_scan);

}  // namespace

BENCHMARK_MAIN();
