#include "analysis/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analysis/stats.hpp"
#include "core/metrics.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "sim/thread_pool.hpp"

namespace tcppred::analysis {

namespace {

/// The loss and RTT an epoch offers predict() under the options, and whether
/// its a-priori measurement failed — the first half of the projection.
struct selected_inputs {
    double loss{0.0};
    double rtt_s{0.0};
    bool failed{false};
};

selected_inputs select_inputs(const testbed::epoch_record& rec,
                              const engine_options& opts) {
    const auto& m = rec.m;
    selected_inputs s;
    if (opts.use_during_flow) {
        s.loss = m.ptilde;
        s.rtt_s = m.ttilde_s;
    } else {
        s.loss = opts.use_event_loss ? m.phat_events : m.phat;
        s.rtt_s = m.that_s;
    }
    // A failed a-priori measurement (fault flags or NaN fields) never
    // reaches a formula; FB-style predictors substitute the trace's last
    // good measurement instead (their staleness fallback).
    s.failed = testbed::apriori_faulty(m.fault_flags) || std::isnan(s.loss) ||
               std::isnan(s.rtt_s) || std::isnan(m.avail_bw_bps);
    return s;
}

/// The second half: classify the selected inputs as failed, absent or
/// valid, and mask the actual throughput of a faulted transfer.
record_view classify(const selected_inputs& s, const testbed::epoch_record& rec,
                     const engine_options& opts) {
    const auto& m = rec.m;
    record_view rv;
    if (s.failed) {
        rv.inputs = core::epoch_inputs::failed_measurement();
    } else if (s.rtt_s <= 0.0) {
        // A zero RTT means the epoch never produced a prior view: the epoch
        // carries no measurement at all (and is skipped without aging any
        // fallback), rather than counting as a failure.
        rv.inputs = core::epoch_inputs::absent();
    } else {
        rv.inputs = core::epoch_inputs::valid(core::path_measurement{
            core::probability{s.loss}, core::seconds{s.rtt_s},
            core::bits_per_second{m.avail_bw_bps}});
    }

    const double actual = opts.small_window ? m.r_small_bps : m.r_large_bps;
    rv.actual_bps = testbed::actual_faulty(m.fault_flags)
                        ? std::numeric_limits<double>::quiet_NaN()
                        : actual;
    return rv;
}

/// Input smoothing (§4.2.10, Fig. 14), the stateful step between selection
/// and classification: a good measurement is replaced by the mean of the
/// trace's previous `smooth_window` good ones (one step ahead; the raw
/// measurement seeds the first epoch), then joins that history. A
/// pass-through unless opts.smooth_inputs.
class input_smoother {
public:
    explicit input_smoother(const engine_options& opts)
        : enabled_(opts.smooth_inputs), window_(opts.smooth_window) {}

    void apply(selected_inputs& s) {
        if (!enabled_ || s.failed) return;
        const double loss = s.loss;
        const double rtt_s = s.rtt_s;
        if (!loss_hist_.empty()) {
            const std::size_t n = std::min(window_, loss_hist_.size());
            double ls = 0.0, ts = 0.0;
            for (std::size_t k = loss_hist_.size() - n; k < loss_hist_.size(); ++k) {
                ls += loss_hist_[k];
                ts += rtt_hist_[k];
            }
            s.loss = ls / static_cast<double>(n);
            s.rtt_s = ts / static_cast<double>(n);
        }
        loss_hist_.push_back(loss);
        rtt_hist_.push_back(rtt_s);
    }

private:
    bool enabled_;
    std::size_t window_;
    std::vector<double> loss_hist_, rtt_hist_;
};

}  // namespace

record_view view_of_record(const testbed::epoch_record& rec,
                           const engine_options& opts) {
    return classify(select_inputs(rec, opts), rec, opts);
}

core::prediction epoch_step(core::predictor& pred, const record_view& rv) {
    const core::prediction p = pred.predict(rv.inputs);
    pred.observe_maybe(rv.actual_bps);
    return p;
}

namespace {

/// One (path, trace) series prepared for the streaming walk: the walked
/// (downsampled) records and each one's projected view.
struct trace_view {
    std::vector<const testbed::epoch_record*> recs;
    std::vector<record_view> views;
};

trace_view build_view(const std::vector<const testbed::epoch_record*>& recs,
                      const engine_options& opts) {
    trace_view v;
    for (std::size_t i = 0; i < recs.size(); i += opts.downsample) {
        v.recs.push_back(recs[i]);
    }
    v.views.reserve(v.recs.size());
    input_smoother smoother(opts);
    for (const testbed::epoch_record* rec : v.recs) {
        selected_inputs in = select_inputs(*rec, opts);
        smoother.apply(in);
        v.views.push_back(classify(in, *rec, opts));
    }
    return v;
}

/// The one scoring loop (see file comment of evaluation.hpp): per epoch,
/// run the epoch step (predict, then reveal the outcome) and score the
/// prediction if scorable. An epoch is scored unless it is within the
/// warmup, the predictor produced no usable forecast, the actual throughput
/// is missing or non-positive (the transfer never got going), or it was
/// retrospectively excluded as an outlier.
void score_walk(const std::vector<record_view>& views,
                const std::vector<const testbed::epoch_record*>* recs,
                core::predictor& pred, std::size_t warmup,
                const std::vector<bool>* excluded, std::vector<epoch_score>& out) {
    // Prediction-status catalogue (DESIGN.md §12): valid = usable on fresh
    // inputs, degraded = usable but from the staleness fallback, absent = no
    // usable forecast. All are functions of the data alone, so snapshots
    // match across job counts.
    static const obs::counter c_valid = obs::counter::get("engine.predictions_valid");
    static const obs::counter c_degraded =
        obs::counter::get("engine.predictions_degraded");
    static const obs::counter c_absent = obs::counter::get("engine.predictions_absent");
    static const obs::counter c_scored = obs::counter::get("engine.epochs_scored");
    static const obs::counter c_skipped = obs::counter::get("engine.epochs_skipped");

    for (std::size_t i = 0; i < views.size(); ++i) {
        const core::prediction p = epoch_step(pred, views[i]);
        const double actual = views[i].actual_bps;
        if (!p.usable()) {
            c_absent.add();
        } else if (p.inputs_used.staleness > 0) {
            c_degraded.add();
        } else {
            c_valid.add();
        }
        const bool skip = i < warmup || !p.usable() || std::isnan(actual) ||
                          actual <= 0.0 || (excluded != nullptr && (*excluded)[i]);
        if (skip) {
            c_skipped.add();
            continue;
        }
        const double error = core::relative_error(p.value_bps, actual);
        out.push_back(epoch_score{recs != nullptr ? (*recs)[i] : nullptr, i,
                                  p.value_bps, actual, error, p.inputs_used.source,
                                  p.inputs_used.staleness});
        c_scored.add();
        if (obs::trace_enabled() && recs != nullptr) {
            const testbed::epoch_record& rec = *(*recs)[i];
            obs::trace_emit(
                obs::json_line{}
                    .str("ev", "predict")
                    .str("predictor", pred.name())
                    .num("path", static_cast<std::int64_t>(rec.path_id))
                    .num("trace", static_cast<std::int64_t>(rec.trace_id))
                    .num("epoch", static_cast<std::int64_t>(rec.epoch_index))
                    .num("predicted_bps", p.value_bps)
                    .num("actual_bps", actual)
                    .num("error", error)
                    .str("source", core::to_string(p.inputs_used.source))
                    .num("staleness",
                         static_cast<std::uint64_t>(p.inputs_used.staleness))
                    .num("fault_flags",
                         static_cast<std::uint64_t>(rec.m.fault_flags))
                    .done());
        }
    }
}

/// Eq. 5 as a running sum: e² added in order, finished with sqrt(sum/n) —
/// exactly core::rmsre's left fold, so it matches collecting the errors
/// bitwise (NaN for no errors).
struct rmsre_sum {
    double sq{0.0};
    std::size_t n{0};
    void add(double e) {
        sq += e * e;
        ++n;
    }
    [[nodiscard]] double rmsre() const {
        return n == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : std::sqrt(sq / static_cast<double>(n));
    }
};

/// The per-trace pipeline both drivers run: build the view, optionally scan
/// the actuals for outliers, then walk a fresh clone of every prototype.
/// One slot per prototype, empty where the trace is shorter than the
/// predictor's min_trace_length() or nothing on it was scorable.
std::vector<std::optional<trace_result>> evaluate_trace(
    std::pair<int, int> key, const std::vector<const testbed::epoch_record*>& recs,
    const std::vector<const core::predictor*>& prototypes, const engine_options& opts) {
    const obs::stage_timer t_trace("engine.trace");
    const trace_view view = build_view(recs, opts);

    std::optional<std::vector<bool>> excluded;
    if (opts.exclude_outliers) {
        std::vector<double> actuals;
        actuals.reserve(view.views.size());
        for (const record_view& rv : view.views) actuals.push_back(rv.actual_bps);
        excluded = core::lso_scan(actuals, opts.predictor.lso).is_outlier;
    }

    std::vector<std::optional<trace_result>> out(prototypes.size());
    for (std::size_t pj = 0; pj < prototypes.size(); ++pj) {
        if (view.views.size() < prototypes[pj]->min_trace_length()) continue;
        const auto pred = prototypes[pj]->clone_empty();
        trace_result tr;
        tr.path_id = key.first;
        tr.trace_id = key.second;
        score_walk(view.views, &view.recs, *pred, opts.warmup,
                   excluded ? &*excluded : nullptr, tr.epochs);
        if (tr.epochs.empty()) continue;  // nothing scorable on this trace
        rmsre_sum sum;
        for (const auto& e : tr.epochs) sum.add(e.error);
        tr.rmsre = sum.rmsre();
        out[pj] = std::move(tr);
    }
    return out;
}

/// Registry-built prototypes for a spec list, plus the borrowed pointers
/// evaluate_trace takes. Throws core::predictor_spec_error on a bad spec.
struct prototype_set {
    std::vector<std::unique_ptr<core::predictor>> owned;
    std::vector<const core::predictor*> ptrs;
};

prototype_set make_prototypes(const std::vector<std::string>& specs,
                              const core::predictor_config& cfg) {
    prototype_set s;
    s.owned.reserve(specs.size());
    s.ptrs.reserve(specs.size());
    for (const auto& spec : specs) {
        s.owned.push_back(core::make_predictor(spec, cfg));
        s.ptrs.push_back(s.owned.back().get());
    }
    return s;
}

/// One predictor's unscored-trace count, tallied into the engine counters.
std::size_t tally_unscored(std::size_t traces, std::size_t scored) {
    static const obs::counter c_traces_scored = obs::counter::get("engine.traces_scored");
    static const obs::counter c_traces_unscored =
        obs::counter::get("engine.traces_unscored");
    c_traces_scored.add(scored);
    c_traces_unscored.add(traces - scored);
    return traces - scored;
}

/// The one fold from a predictor's per-trace results, taken in trace order,
/// to its summary. summarize() runs it over an in-memory result,
/// evaluate_stream over each trace as it completes; both add the
/// conditioned errors in the same trace-then-epoch order, so they agree
/// bitwise.
class summary_fold {
public:
    summary_fold(std::string name, bool keep_epoch_errors) : keep_(keep_epoch_errors) {
        s_.name = std::move(name);
    }

    void add(const trace_result& t) {
        s_.traces.push_back(
            stream_trace_rmsre{t.path_id, t.trace_id, t.rmsre, t.epochs.size()});
        for (const auto& e : t.epochs) {
            if (e.rec == nullptr || e.rec->m.fault_flags == testbed::fault_none) {
                clean_.add(e.error);
            } else {
                faulty_.add(e.error);
            }
            if (e.staleness > 0) stale_.add(e.error);
            if (keep_) s_.epoch_errors.push_back(e.error);
        }
    }

    [[nodiscard]] std::size_t traces_scored() const noexcept { return s_.traces.size(); }

    stream_predictor_summary finish(std::size_t traces_unscored) {
        s_.traces_unscored = traces_unscored;
        s_.conditioned = conditioned_rmsre{clean_.rmsre(), clean_.n, faulty_.rmsre(),
                                           faulty_.n, stale_.rmsre(), stale_.n};
        return std::move(s_);
    }

private:
    stream_predictor_summary s_;
    bool keep_;
    rmsre_sum clean_, faulty_, stale_;
};

}  // namespace

std::vector<double> predictor_result::trace_rmsres() const {
    std::vector<double> out;
    out.reserve(traces.size());
    for (const auto& t : traces) out.push_back(t.rmsre);
    return out;
}

std::vector<double> predictor_result::epoch_errors() const {
    std::vector<double> out;
    for (const auto& t : traces) {
        for (const auto& e : t.epochs) out.push_back(e.error);
    }
    return out;
}

std::vector<epoch_score> predictor_result::all_epochs() const {
    std::vector<epoch_score> out;
    for (const auto& t : traces) out.insert(out.end(), t.epochs.begin(), t.epochs.end());
    return out;
}

std::vector<predictor_result> evaluation_engine::run(
    const testbed::dataset& data, const std::vector<std::string>& specs) const {
    return run(data, make_prototypes(specs, opts_.predictor).ptrs);
}

std::vector<predictor_result> evaluation_engine::run(
    const testbed::dataset& data,
    const std::vector<const core::predictor*>& prototypes) const {
    if (opts_.downsample == 0) {
        throw std::invalid_argument("evaluation_engine: downsample must be >= 1");
    }

    const auto traces_map = data.traces();
    std::vector<std::pair<std::pair<int, int>,
                          const std::vector<const testbed::epoch_record*>*>>
        traces;
    traces.reserve(traces_map.size());
    for (const auto& [key, recs] : traces_map) traces.emplace_back(key, &recs);

    // Pre-sized result slots indexed by trace keep the output independent
    // of worker completion order (determinism contract).
    std::vector<std::vector<std::optional<trace_result>>> slots(traces.size());
    const unsigned jobs =
        opts_.jobs > 0 ? static_cast<unsigned>(opts_.jobs) : sim::jobs_from_env();
    sim::parallel_for(traces.size(), jobs, [&](std::size_t ti) {
        slots[ti] =
            evaluate_trace(traces[ti].first, *traces[ti].second, prototypes, opts_);
    });

    std::vector<predictor_result> out(prototypes.size());
    for (std::size_t pj = 0; pj < prototypes.size(); ++pj) {
        out[pj].name = prototypes[pj]->name();
        for (auto& slot : slots) {
            if (slot[pj]) out[pj].traces.push_back(std::move(*slot[pj]));
        }
        out[pj].traces_unscored = tally_unscored(traces.size(), out[pj].traces.size());
    }
    return out;
}

predictor_result evaluation_engine::run_one(const testbed::dataset& data,
                                            const std::string& spec) const {
    return run(data, std::vector<std::string>{spec}).front();
}

series_evaluation evaluate_series(const std::vector<double>& series,
                                  const core::predictor& prototype,
                                  series_options opts) {
    std::vector<record_view> views;
    views.reserve(series.size());
    for (const double x : series) {
        views.push_back(record_view{core::epoch_inputs::absent(), x});
    }
    std::optional<std::vector<bool>> excluded;
    if (opts.exclude_outliers) {
        excluded = core::lso_scan(series, opts.lso).is_outlier;
    }

    const auto pred = prototype.clone_empty();
    std::vector<epoch_score> epochs;
    score_walk(views, nullptr, *pred, opts.warmup, excluded ? &*excluded : nullptr,
               epochs);

    series_evaluation out;
    out.errors.reserve(epochs.size());
    out.indices.reserve(epochs.size());
    for (const auto& e : epochs) {
        out.errors.push_back(e.error);
        out.indices.push_back(e.index);
    }
    out.rmsre = core::rmsre(out.errors);
    return out;
}

std::vector<double> downsample(const std::vector<double>& series, std::size_t factor) {
    if (factor == 0) throw std::invalid_argument("downsample: factor must be >= 1");
    std::vector<double> out;
    out.reserve(series.size() / factor + 1);
    for (std::size_t i = 0; i < series.size(); i += factor) out.push_back(series[i]);
    return out;
}

conditioned_rmsre rmsre_conditioned(const predictor_result& result) {
    return summarize(result, false).conditioned;
}

std::vector<double> stream_predictor_summary::trace_rmsres() const {
    std::vector<double> out;
    out.reserve(traces.size());
    for (const auto& t : traces) out.push_back(t.rmsre);
    return out;
}

stream_predictor_summary summarize(const predictor_result& result,
                                   bool keep_epoch_errors) {
    summary_fold fold(result.name, keep_epoch_errors);
    for (const auto& t : result.traces) fold.add(t);
    return fold.finish(result.traces_unscored);
}

std::vector<stream_predictor_summary> evaluate_stream(
    const record_source& source, const std::vector<std::string>& specs,
    const stream_eval_options& opts) {
    const engine_options& eopts = opts.engine;
    if (eopts.downsample == 0) {
        throw std::invalid_argument("evaluate_stream: downsample must be >= 1");
    }
    const prototype_set protos = make_prototypes(specs, eopts.predictor);
    std::vector<summary_fold> folds;
    folds.reserve(specs.size());
    for (std::size_t pj = 0; pj < specs.size(); ++pj) {
        const auto& keep = opts.keep_epoch_errors;
        folds.emplace_back(protos.owned[pj]->name(),
                           std::find(keep.begin(), keep.end(), pj) != keep.end());
    }

    std::size_t n_traces = 0;
    std::vector<testbed::epoch_record> trace_recs;  // ONE trace buffered at a time
    std::vector<const testbed::epoch_record*> recs;
    const auto flush_trace = [&] {
        if (trace_recs.empty()) return;
        ++n_traces;
        recs.clear();
        for (const auto& r : trace_recs) recs.push_back(&r);
        const auto results =
            evaluate_trace({trace_recs.front().path_id, trace_recs.front().trace_id},
                           recs, protos.ptrs, eopts);
        for (std::size_t pj = 0; pj < folds.size(); ++pj) {
            if (results[pj]) folds[pj].add(*results[pj]);
        }
        trace_recs.clear();
    };

    testbed::epoch_record rec;
    while (source(rec)) {
        if (!trace_recs.empty() && (rec.path_id != trace_recs.back().path_id ||
                                    rec.trace_id != trace_recs.back().trace_id)) {
            flush_trace();
        }
        trace_recs.push_back(std::move(rec));
        rec = testbed::epoch_record{};
    }
    flush_trace();

    std::vector<stream_predictor_summary> out;
    out.reserve(folds.size());
    for (auto& fold : folds) {
        out.push_back(fold.finish(tally_unscored(n_traces, fold.traces_scored())));
    }
    return out;
}

std::vector<path_error_summary> error_per_path(const predictor_result& result) {
    std::map<int, std::vector<double>> grouped;
    for (const auto& t : result.traces) {
        for (const auto& e : t.epochs) grouped[t.path_id].push_back(e.error);
    }
    std::vector<path_error_summary> out;
    out.reserve(grouped.size());
    for (const auto& [path, errors] : grouped) {
        out.push_back(path_error_summary{path, quantile(errors, 0.10),
                                         quantile(errors, 0.50),
                                         quantile(errors, 0.90), errors.size()});
    }
    return out;
}

std::vector<cov_rmsre_point> cov_vs_rmsre(const testbed::dataset& data,
                                          const std::string& spec,
                                          core::predictor_config cfg) {
    const auto prototype = core::make_predictor(spec, cfg);

    std::vector<cov_rmsre_point> out;
    for (const auto& [key, recs] : data.traces()) {
        std::vector<double> series;
        series.reserve(recs.size());
        for (const testbed::epoch_record* r : recs) {
            series.push_back(testbed::actual_faulty(r->m.fault_flags)
                                 ? std::numeric_limits<double>::quiet_NaN()
                                 : r->m.r_large_bps);
        }
        if (series.size() < 3) continue;

        // The CoV side has no gap concept: compute it over the usable
        // samples only (identical to the full series when nothing faulted).
        std::vector<double> usable;
        usable.reserve(series.size());
        for (const double v : series) {
            if (!std::isnan(v)) usable.push_back(v);
        }
        if (usable.size() < 3) continue;

        series_options so;
        so.exclude_outliers = true;
        so.lso = cfg.lso;
        const series_evaluation eval = evaluate_series(series, *prototype, so);
        // A trace where nothing was forecastable has no RMSRE (NaN since the
        // empty-series fix) — it used to land here as a bogus 0.0 point.
        if (eval.forecasts() == 0) continue;
        out.push_back(cov_rmsre_point{key.first, key.second,
                                      weighted_cov(usable, cfg.lso), eval.rmsre});
    }
    return out;
}

}  // namespace tcppred::analysis
