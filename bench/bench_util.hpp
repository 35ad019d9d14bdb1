// Shared helpers for the figure-reproduction benches: consistent table
// formatting and access to the cached measurement campaigns.
//
// Cache bootstrap: the first bench to call testbed::ensure_campaign1() /
// ensure_campaign2() runs the measurement campaign and caches it as a
// record store, campaign{1,2}_<scale>.store under $REPRO_DATA_DIR (default
// data/); every later bench reads the cache (testbed::load_or_run,
// record_store.hpp). The store carries its campaign's fingerprint: a cache
// of another config or simulator revision, or a corrupt one, is refused and
// regenerated, and cold and warm runs return the same records. The
// bootstrap honors the full environment contract (README "Configuration"):
// $REPRO_SCALE sizes the sweep, $REPRO_JOBS parallelizes it (default: all
// cores), and the resulting store is byte-identical for any job count
// (DESIGN.md §6), so cached datasets are interchangeable across machines
// with different core counts.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/evaluation.hpp"
#include "analysis/stats.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "testbed/record_store.hpp"

namespace tcppred::bench {

/// Evaluate several registry specs (core::make_predictor) in one streaming
/// pass over the dataset — the shared entry point of every figure bench.
/// Honors the observability environment ($REPRO_TRACE, $REPRO_METRICS) so
/// any bench can be traced/timed without per-bench wiring.
inline std::vector<analysis::predictor_result> run_predictors(
    const testbed::dataset& data, const std::vector<std::string>& specs,
    const analysis::engine_options& opts = {}) {
    obs::init_from_env();
    const obs::stage_timer timer("bench.run_predictors");
    return analysis::evaluation_engine(opts).run(data, specs);
}

/// One (name, per-trace-RMSRE ecdf) series per predictor result, ready for
/// print_cdf_table — the RMSRE-CDF figures' shared boilerplate.
inline std::vector<std::pair<std::string, analysis::ecdf>> rmsre_cdf_series(
    const std::vector<analysis::predictor_result>& results) {
    std::vector<std::pair<std::string, analysis::ecdf>> series;
    series.reserve(results.size());
    for (const auto& r : results) {
        series.emplace_back(r.name, analysis::ecdf(r.trace_rmsres()));
    }
    return series;
}

/// Print the figure banner and, for the reader, the paper's qualitative
/// claim this bench is supposed to reproduce.
inline void banner(const std::string& title, const std::string& paper_claim) {
    // Every bench prints a banner first, which makes this the one place to
    // honor $REPRO_TRACE / $REPRO_METRICS regardless of which engine entry
    // point the bench uses.
    obs::init_from_env();
    std::printf("== %s ==\n", title.c_str());
    std::printf("paper: %s\n\n", paper_claim.c_str());
}

/// Print one CDF as rows "x  F(x)" on a fixed grid of x values.
inline void print_cdf_rows(const std::string& series_name,
                           const analysis::ecdf& cdf, std::span<const double> grid) {
    std::printf("%-22s", ("CDF(" + series_name + ")").c_str());
    for (const double x : grid) std::printf(" %8.3g", x);
    std::printf("\n%-22s", ("  n=" + std::to_string(cdf.size())).c_str());
    for (const double x : grid) std::printf(" %8.3f", cdf.at(x));
    std::printf("\n");
}

/// Print several CDFs on a shared grid: header row of x values, then one
/// row of F(x) per series.
inline void print_cdf_table(std::span<const std::pair<std::string, analysis::ecdf>> series,
                            std::span<const double> grid, const std::string& x_label) {
    std::printf("%-26s", x_label.c_str());
    for (const double x : grid) std::printf(" %7.3g", x);
    std::printf("\n");
    for (const auto& [name, cdf] : series) {
        std::printf("%-26s", name.c_str());
        for (const double x : grid) std::printf(" %7.3f", cdf.at(x));
        std::printf("\n");
    }
}

/// Grid helpers for common figure axes.
inline std::vector<double> error_grid() {
    return {-10, -5, -3, -2, -1, -0.5, -0.2, 0, 0.2, 0.5, 1, 2, 3, 5, 9, 20};
}

inline std::vector<double> rmsre_grid() {
    return {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 4.0};
}

}  // namespace tcppred::bench
