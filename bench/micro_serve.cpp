// google-benchmark micro-benchmarks for the serve daemon's snapshot path
// (serve/snapshot.hpp): the hexfloat formatter every `ev` field goes
// through (testbed::hexd) against a direct snprintf("%a"), and whole
// snapshots written (write_snapshot: render, stream, rename) and loaded
// (load_snapshot: parse, replay) for 2,048 paths of 20 or 40 events each,
// the shapes of the serve_replay workload's fixture and final table.
// Observations are synthetic (filled from the index, every 8th one faulted
// with NaN fields), so the numbers isolate the snapshot's own cost; the
// load includes replaying each event through the daemon's three specs.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/path_table.hpp"
#include "serve/snapshot.hpp"
#include "testbed/checkpoint.hpp"

using namespace tcppred;

namespace {

constexpr std::size_t k_paths = 2048;
/// The serve_replay workload's specs.
const std::vector<std::string> k_specs{"fb:pftk", "10-MA", "0.8-HW-LSO"};

serve::observation synthetic_observation(std::size_t path, std::size_t epoch) {
    const double x = static_cast<double>(path * 64 + epoch + 1);
    serve::observation ev;
    ev.epoch = static_cast<std::int64_t>(epoch);
    ev.avail_bw_bps = 5e6 + x;
    ev.phat = 0.01 + 1.0 / x;
    ev.phat_events = 0.005 + 1.0 / (x + 1.0);
    ev.that_s = 0.08 + 0.001 / x;
    ev.r_large_bps = 4e6 + 3.0 * x;
    if ((path + epoch) % 8 == 0) {
        // Both NaN signs: hexd prints "nan" and "-nan".
        const double nan = std::numeric_limits<double>::quiet_NaN();
        ev.avail_bw_bps = nan;
        ev.phat = -nan;
        ev.fault_flags = 3;
    }
    return ev;
}

/// A table of k_paths paths with `events` observations each, built once
/// per size.
const serve::path_table& bench_table(std::size_t events) {
    static std::map<std::size_t, std::unique_ptr<serve::path_table>> tables;
    auto& table = tables[events];
    if (!table) {
        table = std::make_unique<serve::path_table>(k_specs);
        for (std::size_t p = 0; p < k_paths; ++p) {
            const std::string name = "k" + std::to_string(p % 16) + ".p" + std::to_string(p);
            for (std::size_t e = 0; e < events; ++e) {
                table->observe(name, synthetic_observation(p, e));
            }
        }
    }
    return *table;
}

std::filesystem::path bench_snapshot_path() {
    // Named per process, so concurrent runs never clobber each other's file.
    static const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("tcppred_micro_serve." + std::to_string(::getpid()) + ".snap");
    return path;
}

void bm_hexd(benchmark::State& state, bool in_tree) {
    std::vector<double> values;
    for (std::size_t i = 0; i < 4096; ++i) {
        const serve::observation ev = synthetic_observation(i, i % 40);
        values.push_back(i % 2 == 0 ? ev.avail_bw_bps : ev.that_s);
    }
    testbed::hexd_buffer buf{};
    char raw[64] = {};
    for (auto _ : state) {
        for (const double v : values) {
            if (in_tree) {
                benchmark::DoNotOptimize(testbed::hexd(v, buf).data());
            } else {
                benchmark::DoNotOptimize(std::snprintf(raw, sizeof(raw), "%a", v));
                benchmark::DoNotOptimize(raw);
            }
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(values.size()));
}
BENCHMARK_CAPTURE(bm_hexd, in_tree, true);
BENCHMARK_CAPTURE(bm_hexd, snprintf, false);

void bm_write_snapshot(benchmark::State& state) {
    const auto events = static_cast<std::size_t>(state.range(0));
    const serve::path_table& table = bench_table(events);
    for (auto _ : state) serve::write_snapshot(table, bench_snapshot_path());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_paths * events));
    std::filesystem::remove(bench_snapshot_path());
}
BENCHMARK(bm_write_snapshot)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void bm_load_snapshot(benchmark::State& state) {
    const auto events = static_cast<std::size_t>(state.range(0));
    serve::write_snapshot(bench_table(events), bench_snapshot_path());
    for (auto _ : state) {
        serve::path_table table(k_specs);
        benchmark::DoNotOptimize(serve::load_snapshot(table, bench_snapshot_path()).events);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k_paths * events));
    std::filesystem::remove(bench_snapshot_path());
}
BENCHMARK(bm_load_snapshot)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
