// google-benchmark micro-benchmarks for the prediction library: unified
// predictor update/forecast cost and the LSO scan, demonstrating that
// history-based prediction is computationally free compared to the
// measurements that feed it. Predictors are built through the registry, so
// the numbers include the cost of the unified streaming interface that the
// evaluation engine and any serving front-end pay.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/evaluation.hpp"
#include "core/fb_formulas.hpp"
#include "core/lso.hpp"
#include "core/predictor_registry.hpp"
#include "sim/rng.hpp"

using namespace tcppred;

namespace {

std::vector<double> synthetic_series(std::size_t n) {
    sim::rng r(42);
    std::vector<double> s;
    s.reserve(n);
    double level = 5e6;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 60 == 59) level *= r.chance(0.5) ? 2.0 : 0.5;  // level shifts
        s.push_back(level * (1.0 + r.normal(0.0, 0.1)));
    }
    return s;
}

void bm_moving_average_observe(benchmark::State& state) {
    const auto series = synthetic_series(4096);
    const auto ma = core::make_predictor(std::to_string(state.range(0)) + "-MA");
    std::size_t i = 0;
    for (auto _ : state) {
        ma->observe(series[i++ & 4095]);
        benchmark::DoNotOptimize(ma->predict(core::epoch_inputs::absent()));
    }
}
BENCHMARK(bm_moving_average_observe)->Arg(5)->Arg(20);

void bm_holt_winters_observe(benchmark::State& state) {
    const auto series = synthetic_series(4096);
    const auto hw = core::make_predictor("0.8-HW");
    std::size_t i = 0;
    for (auto _ : state) {
        hw->observe(series[i++ & 4095]);
        benchmark::DoNotOptimize(hw->predict(core::epoch_inputs::absent()));
    }
}
BENCHMARK(bm_holt_winters_observe);

/// Every step of a fresh `spec` predictor over a history of range(0) samples
/// (construction, LSO detection, inner update); items = samples. 40 is the
/// trace length of the analysis benchmark.
void spec_steps(benchmark::State& state, const char* spec) {
    const auto series = synthetic_series(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const auto pred = core::make_predictor(spec);
        for (const double x : series) pred->observe(x);
        benchmark::DoNotOptimize(pred->predict(core::epoch_inputs::absent()));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void bm_lso_predictor_step(benchmark::State& state) { spec_steps(state, "0.8-HW-LSO"); }
BENCHMARK(bm_lso_predictor_step)->Arg(20)->Arg(40)->Arg(150);

void bm_nws_step(benchmark::State& state) { spec_steps(state, "NWS"); }
BENCHMARK(bm_nws_step)->Arg(40);

void bm_ar_lso_step(benchmark::State& state) { spec_steps(state, "5-AR-LSO"); }
BENCHMARK(bm_ar_lso_step)->Arg(40);

/// The analysis benchmark's eight specs over one range(0)-sample series,
/// walked epoch-major as the engine walks a trace: every spec takes epoch i
/// (predict, then observe) before any takes epoch i + 1. range(1) = 1 clones
/// them into one lso_share, so all eight LSO wrappers (four inside NWS) run
/// one filter; 0 clones each spec on its own, leaving five filters (NWS's
/// candidates still share theirs). Items = spec steps.
void bm_spec_set_step(benchmark::State& state) {
    const auto series = synthetic_series(static_cast<std::size_t>(state.range(0)));
    std::vector<std::unique_ptr<core::predictor>> protos;
    for (const char* spec : {"fb:pftk", "10-MA", "10-MA-LSO", "0.8-HW", "0.8-HW-LSO",
                             "NWS", "5-AR-LSO", "hybrid:0.8-HW-LSO"}) {
        protos.push_back(core::make_predictor(spec));
    }
    const bool shared = state.range(1) != 0;
    std::vector<std::unique_ptr<core::predictor>> preds(protos.size());
    for (auto _ : state) {
        core::lso_share share;
        for (std::size_t j = 0; j < protos.size(); ++j) {
            preds[j] = shared ? protos[j]->clone_into(share) : protos[j]->clone_empty();
        }
        for (const double x : series) {
            const analysis::record_view view{core::epoch_inputs::absent(), x};
            for (const auto& p : preds) {
                benchmark::DoNotOptimize(analysis::epoch_step(*p, view));
            }
        }
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) *
                            static_cast<std::int64_t>(protos.size()));
}
BENCHMARK(bm_spec_set_step)->Args({40, 1})->Args({40, 0});

void bm_lso_scan_trace(benchmark::State& state) {
    const auto series = synthetic_series(150);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::lso_scan(series));
    }
}
BENCHMARK(bm_lso_scan_trace);

void bm_pftk_formula(benchmark::State& state) {
    const core::tcp_flow_params flow;
    double p = 1e-4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::pftk_throughput(
            flow, core::seconds{0.06}, core::probability{p}, core::seconds{1.0}));
        p = p < 0.4 ? p * 1.01 : 1e-4;
    }
}
BENCHMARK(bm_pftk_formula);

void bm_pftk_full_formula(benchmark::State& state) {
    const core::tcp_flow_params flow;
    double p = 1e-4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::pftk_full_throughput(
            flow, core::seconds{0.06}, core::probability{p}, core::seconds{1.0}));
        p = p < 0.4 ? p * 1.01 : 1e-4;
    }
}
BENCHMARK(bm_pftk_full_formula);

void bm_pftk_inversion(benchmark::State& state) {
    const core::tcp_flow_params flow;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::pftk_implied_loss(
            flow, core::seconds{0.06}, core::seconds{1.0}, core::bits_per_second{2e6}));
    }
}
BENCHMARK(bm_pftk_inversion);

void bm_evaluate_series_trace(benchmark::State& state) {
    const auto series = synthetic_series(150);
    const auto proto = core::make_predictor("0.8-HW-LSO");
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::evaluate_series(series, *proto));
    }
}
BENCHMARK(bm_evaluate_series_trace);

}  // namespace

BENCHMARK_MAIN();
