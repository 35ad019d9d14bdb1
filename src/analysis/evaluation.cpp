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

/// Epochs of input history smooth_inputs averages over (§4.2.10).
constexpr std::size_t k_smooth_window = 10;
/// Samples evaluate_series only feeds to the predictor: the first.
constexpr std::size_t k_series_warmup = 1;

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
/// trace's previous k_smooth_window good ones (one step ahead; the raw
/// measurement seeds the first epoch), then joins that history. A
/// pass-through unless opts.smooth_inputs.
class input_smoother {
public:
    explicit input_smoother(const engine_options& opts) : enabled_(opts.smooth_inputs) {}

    void apply(selected_inputs& s) {
        if (!enabled_ || s.failed) return;
        const double loss = s.loss;
        const double rtt_s = s.rtt_s;
        if (!loss_hist_.empty()) {
            const std::size_t n = std::min(k_smooth_window, loss_hist_.size());
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

bool scorable(bool usable_forecast, double actual_bps) noexcept {
    return usable_forecast && !std::isnan(actual_bps) && actual_bps > 0.0;
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

/// One epoch of the scoring walk (see file comment of evaluation.hpp): run
/// the epoch step (predict, then reveal the outcome) and score the
/// prediction if scorable. An epoch is scored unless the caller excludes it
/// (within the warmup, or retrospectively an outlier), the predictor
/// produced no usable forecast, or the actual throughput is missing or
/// non-positive (the transfer never got going).
void score_step(core::predictor& pred, const record_view& view, std::size_t index,
                const testbed::epoch_record* rec, bool excluded,
                std::vector<epoch_score>& out) {
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

    const core::prediction p = epoch_step(pred, view);
    const double actual = view.actual_bps;
    if (!p.usable()) {
        c_absent.add();
    } else if (p.inputs_used.staleness > 0) {
        c_degraded.add();
    } else {
        c_valid.add();
    }
    if (excluded || !scorable(p.usable(), actual)) {
        c_skipped.add();
        return;
    }
    out.push_back(epoch_score{rec, index, p.value_bps, actual,
                              core::relative_error(p.value_bps, actual),
                              p.inputs_used.source, p.inputs_used.staleness});
    c_scored.add();
}

/// The "predict" trace events of one predictor's scored epochs on one
/// trace, in epoch order.
void emit_predict_events(const std::string& predictor,
                         const std::vector<epoch_score>& epochs) {
    for (const epoch_score& e : epochs) {
        const testbed::epoch_record& rec = *e.rec;
        obs::trace_emit(
            obs::json_line{}
                .str("ev", "predict")
                .str("predictor", predictor)
                .num("path", static_cast<std::int64_t>(rec.path_id))
                .num("trace", static_cast<std::int64_t>(rec.trace_id))
                .num("epoch", static_cast<std::int64_t>(rec.epoch_index))
                .num("predicted_bps", e.predicted_bps)
                .num("actual_bps", e.actual_bps)
                .num("error", e.error)
                .str("source", core::to_string(e.source))
                .num("staleness", static_cast<std::uint64_t>(e.staleness))
                .num("fault_flags", static_cast<std::uint64_t>(rec.m.fault_flags))
                .done());
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
///
/// The clones share one lso_share, so the trace's LSO wrappers run one
/// filter per config, and the walk is epoch-major — every clone takes
/// epoch i before any takes epoch i + 1 — which is the lockstep the shared
/// filter needs. The trace events are emitted after the walk, predictor by
/// predictor, in the order a predictor-major walk emits them.
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

    struct walker {
        std::size_t slot{0};
        std::unique_ptr<core::predictor> pred;
    };
    std::vector<walker> walkers;
    std::vector<std::optional<trace_result>> out(prototypes.size());
    core::lso_share share;
    for (std::size_t pj = 0; pj < prototypes.size(); ++pj) {
        if (view.views.size() < prototypes[pj]->min_trace_length()) continue;
        walkers.push_back(walker{pj, prototypes[pj]->clone_into(share)});
        out[pj].emplace();
        out[pj]->path_id = key.first;
        out[pj]->trace_id = key.second;
    }

    for (std::size_t i = 0; i < view.views.size(); ++i) {
        const bool skip = i < opts.warmup || (excluded && (*excluded)[i]);
        for (walker& w : walkers) {
            score_step(*w.pred, view.views[i], i, view.recs[i], skip, out[w.slot]->epochs);
        }
    }

    for (const walker& w : walkers) {
        std::optional<trace_result>& tr = out[w.slot];
        if (tr->epochs.empty()) {  // nothing scorable on this trace
            tr.reset();
            continue;
        }
        if (obs::trace_enabled()) emit_predict_events(w.pred->name(), tr->epochs);
        rmsre_sum sum;
        for (const auto& e : tr->epochs) sum.add(e.error);
        tr->rmsre = sum.rmsre();
    }
    return out;
}

/// Registry-built prototypes for a spec list, plus the borrowed pointers
/// evaluate_trace takes. Scoring the companion transfer, formula predictors
/// take its window. Throws core::predictor_spec_error on a bad spec.
struct prototype_set {
    std::vector<std::unique_ptr<core::predictor>> owned;
    std::vector<const core::predictor*> ptrs;
};

prototype_set make_prototypes(const std::vector<std::string>& specs,
                              const engine_options& opts) {
    core::predictor_config cfg = opts.predictor;
    if (opts.small_window) cfg.window_bytes = core::k_companion_window_bytes;
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
    const prototype_set protos = make_prototypes(specs, opts_);
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
            evaluate_trace(traces[ti].first, *traces[ti].second, protos.ptrs, opts_);
    });

    std::vector<predictor_result> out(protos.ptrs.size());
    for (std::size_t pj = 0; pj < protos.ptrs.size(); ++pj) {
        out[pj].name = protos.ptrs[pj]->name();
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
                                  const core::predictor& prototype) {
    const auto pred = prototype.clone_empty();
    std::vector<epoch_score> epochs;
    for (std::size_t i = 0; i < series.size(); ++i) {
        score_step(*pred, record_view{core::epoch_inputs::absent(), series[i]}, i, nullptr,
                   i < k_series_warmup, epochs);
    }

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
    const prototype_set protos = make_prototypes(specs, eopts);
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

rmsre_headline rmsre_headline_of(std::span<const double> trace_rmsres) {
    const ecdf cdf{std::vector<double>(trace_rmsres.begin(), trace_rmsres.end())};
    return rmsre_headline{cdf.size(), cdf.quantile(0.5), cdf.quantile(0.9), cdf.at(0.4)};
}

fb_error_shares fb_error_shares_of(std::span<const double> errors) {
    return fb_error_shares{errors.size(), share(errors, [](double e) { return e > 0; }),
                           share(errors, [](double e) { return e >= 1; }),
                           share(errors, [](double e) { return e >= 9; }),
                           share(errors, [](double e) { return e <= -1; })};
}

const char* to_string(path_class c) noexcept {
    switch (c) {
        case path_class::predictable: return "predictable";
        case path_class::stable: return "stable errors";
        case path_class::unstable: return "unstable errors";
        case path_class::unpredictable: return "unpredictable";
    }
    return "?";
}

std::vector<path_predictability> classify_paths(const stream_predictor_summary& hw_lso) {
    std::map<int, std::vector<double>> per_path;
    for (const auto& t : hw_lso.traces) per_path[t.path_id].push_back(t.rmsre);
    std::vector<path_predictability> out;
    out.reserve(per_path.size());
    for (const auto& [path, rs] : per_path) {
        const auto [lo, hi] = std::minmax_element(rs.begin(), rs.end());
        path_predictability p{path, rs.size(), mean(rs), *hi - *lo, path_class::predictable};
        if (p.mean >= 0.5) {
            p.klass = path_class::unpredictable;
        } else if (p.mean >= 0.2) {
            p.klass = p.spread < 0.25 ? path_class::stable : path_class::unstable;
        }
        out.push_back(p);
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
                                          const std::string& spec) {
    engine_options opts;
    opts.exclude_outliers = true;
    const predictor_result result = evaluation_engine{opts}.run_one(data, spec);
    const auto traces = data.traces();

    std::vector<cov_rmsre_point> out;
    for (const trace_result& t : result.traces) {
        // The CoV side has no gap concept: compute it over the usable
        // samples only (identical to the full series when nothing faulted).
        std::vector<double> usable;
        for (const testbed::epoch_record* r : traces.at({t.path_id, t.trace_id})) {
            if (!testbed::actual_faulty(r->m.fault_flags)) usable.push_back(r->m.r_large_bps);
        }
        if (usable.size() < 3) continue;
        out.push_back(cov_rmsre_point{t.path_id, t.trace_id,
                                      weighted_cov(usable, opts.predictor.lso), t.rmsre});
    }
    return out;
}

}  // namespace tcppred::analysis
