// tcppred_analyze — summarize a campaign dataset CSV: FB accuracy, HB
// accuracy per predictor, and per-path predictability classes. The
// command-line counterpart of the per-figure benches for ad-hoc datasets.
// Every predictor is built from its registry spec (core::make_predictor)
// and all of them are evaluated in ONE streaming pass over the dataset
// (analysis::evaluation_engine).
//
//   tcppred_analyze DATASET.csv [--predictors SPEC,SPEC,...]
//                   [--trace FILE] [--metrics-summary]
//   tcppred_analyze --from-store STORE [--predictors ...]
//   tcppred_analyze --from-trace RUN.jsonl
//
// --from-store streams a finished record store (tcppred_campaign
// --format store) through analysis::evaluate_stream — one trace resident
// at a time, never the dataset — and prints a report byte-identical to
// analyzing the store's CSV conversion (records are CSV-normalized on the
// fly so the lossy decimal round-trip matches).
//
// --from-trace re-derives the fault-conditioned RMSRE table from a JSONL
// run trace (tcppred_campaign/tcppred_analyze --trace, $REPRO_TRACE)
// without the dataset: every "predict" event carries the scored error, its
// fault flags and its input staleness.
//
// Exit codes: 0 success, 1 bad arguments, 2 runtime failure (unreadable or
// malformed dataset/trace, unknown predictor spec).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "analysis/evaluation.hpp"
#include "analysis/stats.hpp"
#include "core/metrics.hpp"
#include "core/predictor_registry.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "testbed/dataset.hpp"
#include "testbed/record_store.hpp"

using namespace tcppred;

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s DATASET.csv [--predictors SPEC,SPEC,...]\n"
                 "          [--trace FILE] [--metrics-summary]\n"
                 "       %s --from-store STORE [--predictors ...]\n"
                 "       %s --from-trace RUN.jsonl\n"
                 "  default predictors: 10-MA,10-MA-LSO,0.8-HW,0.8-HW-LSO,NWS\n"
                 "  spec grammar: fb[:pftk|:pftk-full|:sqrt|:minwa], <n>-MA[-LSO],\n"
                 "                <a>-EWMA[-LSO], <a>-HW[-LSO], <p>-AR[-LSO], NWS,\n"
                 "                hybrid:<hb-spec>[:<k>]   (see README \"Predictor specs\")\n"
                 "  --trace FILE      write a JSONL run trace (also $REPRO_TRACE)\n"
                 "  --metrics-summary print counters and stage timings to stderr on exit\n"
                 "  --from-store FILE stream-analyze a finished record store\n"
                 "                    (tcppred_campaign --format store) with one\n"
                 "                    trace resident at a time, never the dataset\n"
                 "  --from-trace FILE re-derive the conditioned RMSRE table from a\n"
                 "                    previously written run trace\n",
                 argv0, argv0, argv0);
}

/// Width of a table's predictor column: the longest name, at least 14.
int name_width(const std::vector<std::string>& names) {
    std::size_t w = 14;
    for (const auto& n : names) w = std::max(w, n.size());
    return static_cast<int>(w);
}

/// Render an RMSRE with its sample count, or "n/a" when nothing was scored
/// (core::rmsre of an empty series is NaN, not a perfect 0).
std::string fmt_rmsre(double rmsre, std::size_t n) {
    if (n == 0) return "n/a";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f (%zu)", rmsre, n);
    return buf;
}

/// What the dataset header line reports, however the records arrived.
struct dataset_counts {
    std::size_t epochs{0};
    std::size_t paths{0};
    std::size_t traces{0};
    std::size_t faulty{0};
};

/// The predictor a spec builds, by its canonical name: "fb" and "fb:pftk"
/// are one predictor.
std::string canonical_name(const std::string& spec) {
    return core::make_predictor(spec)->name();
}

/// The one report printer both evaluation paths share: the in-memory engine
/// path collapses its predictor_results with analysis::summarize, the
/// --from-store path gets summaries straight from evaluate_stream — so the
/// two modes produce byte-identical stdout on the same records.
/// `summaries[i]` is the predictor named `names[i]`; rows are printed under
/// each spec's listed spelling.
void print_report(const dataset_counts& counts, const std::vector<std::string>& names,
                  const std::vector<std::string>& specs,
                  const std::vector<analysis::stream_predictor_summary>& summaries) {
    std::printf("dataset: %zu epochs, %zu paths, %zu traces", counts.epochs,
                counts.paths, counts.traces);
    if (counts.faulty > 0) {
        std::printf(" (%zu epochs carry measurement faults, %.1f%%)", counts.faulty,
                    100.0 * static_cast<double>(counts.faulty) /
                        static_cast<double>(counts.epochs));
    }
    std::printf("\n\n");

    const auto summary_of =
        [&](const std::string& spec) -> const analysis::stream_predictor_summary& {
        const std::string name = canonical_name(spec);
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] == name) return summaries[i];
        }
        throw std::logic_error("spec not evaluated: " + spec);
    };

    // ---- FB summary
    const auto& fb = summary_of("fb:pftk");
    const auto& errors = fb.epoch_errors;
    if (errors.empty()) {
        std::printf("formula-based (Eq. 3): no scorable epochs\n");
    } else {
        const analysis::fb_error_shares shares = analysis::fb_error_shares_of(errors);
        std::printf("formula-based (Eq. 3) over %zu epochs:\n", shares.n);
        std::printf("  median E %+.2f | overestimates %.0f%% | off by >2x: over %.0f%%, "
                    "under %.0f%%\n",
                    analysis::median(errors), 100.0 * shares.over, 100.0 * shares.over_2x,
                    100.0 * shares.under_2x);
        if (counts.faulty > 0) {
            // Fault-conditioned accuracy: how much measurement failures
            // (and the stale-fallback inputs they force) cost.
            const auto& cond = fb.conditioned;
            if (cond.n_clean == 0) {
                std::printf("  RMSRE by measurement status: clean n/a");
            } else {
                std::printf("  RMSRE by measurement status: clean %.3f (%zu epochs)",
                            cond.rmsre_clean, cond.n_clean);
            }
            if (cond.n_faulty > 0) {
                std::printf(" | faulty %.3f (%zu)", cond.rmsre_faulty, cond.n_faulty);
            }
            if (cond.n_stale > 0) {
                std::printf(" | stale-input %.3f (%zu)", cond.rmsre_stale,
                            cond.n_stale);
            }
            std::printf("\n");
        }
    }
    std::printf("\n");

    // ---- HB summary per predictor
    std::printf("history-based, per-trace RMSRE:\n");
    const int w = name_width(specs);
    std::printf("  %-*s %8s %8s %10s\n", w, "predictor", "median", "p90", "P(<0.4)");
    for (const auto& spec : specs) {
        const auto& res = summary_of(spec);
        const analysis::rmsre_headline h = analysis::rmsre_headline_of(res.trace_rmsres());
        if (h.n == 0) {
            // Every trace was unscorable (too short / all-faulty): there
            // is no RMSRE distribution, which is not the same as a
            // perfect one.
            std::printf("  %-*s %8s %8s %10s (%zu traces unscored)\n", w, spec.c_str(),
                        "n/a", "n/a", "n/a", res.traces_unscored);
            continue;
        }
        std::printf("  %-*s %8.3f %8.3f %9.0f%%\n", w, spec.c_str(), h.median, h.p90,
                    100.0 * h.below_04);
    }

    // ---- per-path classes (HW-LSO)
    std::printf("\nper-path predictability (0.8-HW-LSO mean trace RMSRE):\n");
    for (const auto& p : analysis::classify_paths(summary_of("0.8-HW-LSO"))) {
        std::printf("  path %-4d %-15s RMSRE %.3f (%zu traces)\n", p.path_id,
                    analysis::to_string(p.klass), p.mean, p.traces);
    }
}

/// Per-predictor accumulation of "predict" events from a run trace.
struct trace_tally {
    std::vector<double> all, clean, faulty, stale;
};

int analyze_from_trace(const std::string& file) {
    const std::vector<obs::trace_event> events = obs::read_trace_file(file);
    std::map<std::string, trace_tally> per_predictor;
    std::size_t predict_events = 0;
    for (const obs::trace_event& ev : events) {
        if (std::get<std::string>(ev.at("ev")) != "predict") continue;
        ++predict_events;
        const auto field = [&](const char* key) -> double {
            const auto it = ev.find(key);
            if (it == ev.end()) {
                throw std::runtime_error(file + ": predict event missing \"" +
                                         key + "\"");
            }
            const double* v = std::get_if<double>(&it->second);
            if (v == nullptr) {
                throw std::runtime_error(file + ": predict event key \"" +
                                         std::string(key) + "\" is not numeric");
            }
            return *v;
        };
        const auto pred_it = ev.find("predictor");
        if (pred_it == ev.end()) {
            throw std::runtime_error(file + ": predict event missing \"predictor\"");
        }
        trace_tally& t = per_predictor[std::get<std::string>(pred_it->second)];
        const double error = field("error");
        t.all.push_back(error);
        if (field("fault_flags") != 0.0) {
            t.faulty.push_back(error);
        } else {
            t.clean.push_back(error);
        }
        if (field("staleness") > 0.0) t.stale.push_back(error);
    }

    std::printf("trace %s: %zu events, %zu predict events, %zu predictors\n\n",
                file.c_str(), events.size(), predict_events, per_predictor.size());
    std::printf("RMSRE by measurement status (re-derived from trace):\n");
    std::vector<std::string> names;
    for (const auto& [name, t] : per_predictor) names.push_back(name);
    const int w = name_width(names);
    std::printf("  %-*s %-16s %-16s %-16s %-16s\n", w, "predictor", "all", "clean",
                "faulty", "stale-input");
    for (const auto& [name, t] : per_predictor) {
        std::printf("  %-*s %-16s %-16s %-16s %-16s\n", w, name.c_str(),
                    fmt_rmsre(core::rmsre(t.all), t.all.size()).c_str(),
                    fmt_rmsre(core::rmsre(t.clean), t.clean.size()).c_str(),
                    fmt_rmsre(core::rmsre(t.faulty), t.faulty.size()).c_str(),
                    fmt_rmsre(core::rmsre(t.stale), t.stale.size()).c_str());
    }
    if (per_predictor.empty()) std::printf("  (no predict events in trace)\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string input;
    std::string from_trace;
    std::string from_store;
    std::string trace_file;
    bool metrics_summary = false;
    std::vector<std::string> specs{"10-MA", "10-MA-LSO", "0.8-HW", "0.8-HW-LSO", "NWS"};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--predictors") {
            specs = core::split_spec_list(next());
            if (specs.empty()) {
                std::fprintf(stderr, "--predictors must name at least one predictor spec\n");
                return 1;
            }
        } else if (arg == "--from-trace") {
            from_trace = next();
        } else if (arg == "--from-store") {
            from_store = next();
        } else if (arg == "--trace") {
            trace_file = next();
        } else if (arg == "--metrics-summary") {
            metrics_summary = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        } else if (input.empty()) {
            input = arg;
        } else {
            std::fprintf(stderr, "unexpected extra argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }

    if (!from_trace.empty()) {
        if (!input.empty() || !from_store.empty()) {
            std::fprintf(stderr, "--from-trace takes no dataset argument\n");
            return 1;
        }
        try {
            return analyze_from_trace(from_trace);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }
    if (!from_store.empty() && !input.empty()) {
        std::fprintf(stderr, "--from-store takes no dataset argument\n");
        return 1;
    }
    if (input.empty() && from_store.empty()) {
        usage(argv[0]);
        return 1;
    }

    // --trace opens first so init_from_env() skips $REPRO_TRACE (the flag
    // overrides the environment, with no stray env-named file).
    if (!trace_file.empty()) {
        try {
            tcppred::obs::trace_writer::instance().open(trace_file);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    tcppred::obs::init_from_env();
    if (metrics_summary) tcppred::obs::set_metrics_enabled(true);
    const auto finish_observability = [&]() -> int {
        if (metrics_summary) tcppred::obs::print_metrics_summary();
        if (!trace_file.empty()) {
            try {
                tcppred::obs::trace_writer::instance().close();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
        }
        return 0;
    };

    try {
        // One pass evaluates the FB baseline, the HW-LSO classifier input
        // and every requested spec together, each predictor once however
        // it is spelled. fb:pftk is always index 0 — the one spec whose
        // per-epoch errors the report needs.
        std::vector<std::string> all_specs;
        std::vector<std::string> names;  // canonical, parallel to all_specs
        const auto add = [&](const std::string& spec) {
            std::string name = canonical_name(spec);
            if (std::find(names.begin(), names.end(), name) != names.end()) return;
            all_specs.push_back(spec);
            names.push_back(std::move(name));
        };
        add("fb:pftk");
        const std::string hw_lso = canonical_name("0.8-HW-LSO");
        if (std::none_of(specs.begin(), specs.end(),
                         [&](const std::string& s) { return canonical_name(s) == hw_lso; })) {
            add("0.8-HW-LSO");
        }
        for (const std::string& spec : specs) add(spec);

        if (!from_store.empty()) {
            // Streamed path: records flow store → CSV-normalization →
            // evaluate_stream one trace at a time. The normalization applies
            // the same lossy precision-10 decimal round-trip loading the
            // store's CSV conversion would, so the report is byte-identical
            // to the in-memory path on that CSV.
            testbed::record_reader reader(from_store);
            const dataset_counts counts{reader.total(), reader.catalog_lines().size(),
                                        reader.n_traces(), reader.n_faulted()};
            analysis::stream_eval_options sopts;
            sopts.keep_epoch_errors = {0};
            const auto summaries = analysis::evaluate_stream(
                [&](testbed::epoch_record& out) {
                    if (!reader.next(out)) return false;
                    out = testbed::csv_normalized_record(out);
                    return true;
                },
                all_specs, sopts);
            print_report(counts, names, specs, summaries);
        } else {
            const testbed::dataset data = testbed::load_csv(input);
            std::size_t faulty_epochs = 0;
            for (const auto& r : data.records) {
                faulty_epochs += r.m.fault_flags != testbed::fault_none;
            }
            const dataset_counts counts{data.records.size(), data.paths.size(),
                                        data.traces().size(), faulty_epochs};
            const auto results = analysis::evaluation_engine{}.run(data, all_specs);
            std::vector<analysis::stream_predictor_summary> summaries;
            summaries.reserve(results.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                summaries.push_back(analysis::summarize(results[i], i == 0));
            }
            print_report(counts, names, specs, summaries);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        finish_observability();
        return 2;
    }
    return finish_observability();
}
