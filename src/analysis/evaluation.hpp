// The single streaming evaluation engine behind every figure and tool:
// walks a dataset once per (path, trace), feeds each epoch to every
// registered predictor (predict → score → observe), and emits per-epoch
// relative errors (Eq. 4) plus per-trace RMSREs (Eq. 5). Formula-based and
// history-based predictors run through the same loop — the engine builds
// each epoch's a-priori measurement view for FB-style predictors and the
// masked throughput series for HB-style ones, and fault-flagged epochs
// reach predictors uniformly as observe_gap()/failed-measurement inputs.
//
// Determinism (DESIGN.md §6): traces are processed in dataset::traces()
// order, results land in pre-sized slots indexed by trace, and every
// predictor is cloned fresh per trace — so the output is byte-identical for
// any jobs / $REPRO_JOBS value.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/lso.hpp"
#include "core/predictor.hpp"
#include "core/predictor_registry.hpp"
#include "testbed/dataset.hpp"

namespace tcppred::analysis {

/// How the engine turns a dataset into per-epoch inputs and actuals.
struct engine_options {
    /// Use the during-flow probing view (T̃, p̃) instead of the a-priori one
    /// (the hypothetical of §4.2.3 / Fig. 6).
    bool use_during_flow{false};
    /// Use the loss-EVENT rate (consecutive probe losses collapsed, Goyal
    /// et al.) instead of the raw probe loss rate as the model input.
    bool use_event_loss{false};
    /// Smooth the RTT/loss inputs with a moving average over the preceding
    /// epochs of the same trace (§4.2.10 / Fig. 14).
    bool smooth_inputs{false};
    std::size_t smooth_window{10};
    /// Predict/score the W=20KB companion transfer instead of the W=1MB
    /// target (Figs. 12, 22).
    bool small_window{false};
    /// Keep every k-th epoch of each trace (sporadic transfers, §6.1.6).
    std::size_t downsample{1};
    /// Skip scoring the first `warmup` walked epochs of each trace (they
    /// only seed history). History-based predictors already return
    /// no_history at epoch 0, so 0 reproduces the paper's HB evaluation.
    std::size_t warmup{0};
    /// Retrospectively exclude samples flagged as outliers by an LSO scan
    /// from the error statistics (CoV analysis, §6.1.3). Scan parameters
    /// come from predictor.lso.
    bool exclude_outliers{false};
    /// Worker threads over traces: 0 = $REPRO_JOBS/auto, 1 = serial.
    /// Results are byte-identical for every value.
    int jobs{1};
    /// Shared predictor parameters (flow, window, fallback, LSO tuning).
    core::predictor_config predictor{};
};

/// One epoch record projected to the engine's per-epoch evaluation inputs:
/// the a-priori measurement view predict() sees and the (possibly masked)
/// actual throughput observe_maybe() reveals.
struct record_view {
    core::epoch_inputs inputs{};
    /// Measured throughput; NaN when the transfer measurement faulted.
    double actual_bps{std::numeric_limits<double>::quiet_NaN()};
};

/// The stateless per-record slice of the engine's view building, honouring
/// the stateless engine_options switches (use_during_flow, use_event_loss,
/// small_window) and ignoring the cross-epoch ones (smooth_inputs,
/// downsample, which need trace context). The engine projects every epoch
/// with the same two steps (select the loss/RTT, then classify and mask),
/// with input smoothing as an optional stateful step between them, so an
/// online consumer — the serve daemon replaying an observation stream —
/// sees bitwise-identical inputs to an offline engine run over the same
/// records by construction.
[[nodiscard]] record_view view_of_record(const testbed::epoch_record& rec,
                                         const engine_options& opts = {});

/// One epoch of the streaming contract, shared by the engine's scoring walk
/// and the serve daemon: predict from the epoch's inputs, then reveal its
/// (possibly masked) actual. Returns the prediction made before the reveal.
[[nodiscard]] core::prediction epoch_step(core::predictor& pred, const record_view& rv);

/// One scored epoch of one predictor.
struct epoch_score {
    const testbed::epoch_record* rec{nullptr};  ///< null for series evaluation
    std::size_t index{0};        ///< position in the walked (downsampled) series
    double predicted_bps{0.0};   ///< R̂
    double actual_bps{0.0};      ///< R
    double error{0.0};           ///< E (Eq. 4)
    core::prediction_source source{core::prediction_source::history};
    /// Epochs between the prediction's inputs and the epoch it scored
    /// (0 = fresh; >0 only under measurement faults, FB-style predictors).
    std::size_t staleness{0};
};

/// One predictor's scored epochs and RMSRE on one (path, trace) series.
struct trace_result {
    int path_id{0};
    int trace_id{0};
    double rmsre{0.0};
    std::vector<epoch_score> epochs;

    [[nodiscard]] std::size_t forecasts() const noexcept { return epochs.size(); }
};

/// One predictor's results over the whole dataset, traces in
/// dataset::traces() order. Traces shorter than the predictor's
/// min_trace_length(), and traces where no epoch could be scored, are
/// omitted from `traces` and tallied in `traces_unscored` — an all-faulty
/// trace has NO error (core::rmsre of nothing is NaN), not a perfect one,
/// and tools render the gap as "n/a" instead of silently shrinking the
/// denominator.
struct predictor_result {
    std::string name;  ///< canonical spec (predictor::name())
    std::vector<trace_result> traces;
    /// Input traces that produced no scored epoch (too short for the
    /// predictor, every epoch faulty/warmup/excluded, ...).
    std::size_t traces_unscored{0};

    /// Per-trace RMSRE values, trace order (for CDFs over traces).
    [[nodiscard]] std::vector<double> trace_rmsres() const;
    /// Per-epoch relative errors, trace order (for CDFs over epochs).
    [[nodiscard]] std::vector<double> epoch_errors() const;
    /// All scored epochs flattened, trace order.
    [[nodiscard]] std::vector<epoch_score> all_epochs() const;
};

/// The engine. Construct with options, run over a dataset with a list of
/// registry specs (core::make_predictor) or pre-built prototypes.
class evaluation_engine {
public:
    explicit evaluation_engine(engine_options opts = {}) : opts_(opts) {}

    /// Evaluate every spec in one pass over the data. Throws
    /// core::predictor_spec_error on a bad spec before touching the data.
    [[nodiscard]] std::vector<predictor_result> run(
        const testbed::dataset& data, const std::vector<std::string>& specs) const;

    /// Evaluate externally constructed prototypes (cloned per trace).
    [[nodiscard]] std::vector<predictor_result> run(
        const testbed::dataset& data,
        const std::vector<const core::predictor*>& prototypes) const;

    /// Convenience: evaluate a single spec.
    [[nodiscard]] predictor_result run_one(const testbed::dataset& data,
                                           const std::string& spec) const;

    [[nodiscard]] const engine_options& options() const noexcept { return opts_; }

private:
    engine_options opts_;
};

/// Evaluate one predictor over a bare throughput series (synthetic traces,
/// micro-benchmarks): each epoch is presented with no measurement view, NaN
/// samples are gaps. The same scoring loop the engine uses per trace.
struct series_options {
    /// Skip forecasting the first `warmup` samples (they seed history).
    std::size_t warmup{1};
    bool exclude_outliers{false};
    core::lso_config lso{};  ///< parameters for the exclusion scan
};

struct series_evaluation {
    std::vector<double> errors;        ///< relative error of each forecast made
    std::vector<std::size_t> indices;  ///< series index each error refers to
    double rmsre{0.0};

    [[nodiscard]] std::size_t forecasts() const noexcept { return errors.size(); }
};

[[nodiscard]] series_evaluation evaluate_series(const std::vector<double>& series,
                                                const core::predictor& prototype,
                                                series_options opts = {});

/// Keep every k-th sample of a series (down-sampling to a longer transfer
/// period, §6.1.6).
[[nodiscard]] std::vector<double> downsample(const std::vector<double>& series,
                                             std::size_t factor);

/// RMSRE conditioned on measurement-failure status (fault-injection
/// campaigns): clean epochs vs epochs carrying any fault flag, plus the
/// stale-input subset. For fault-free datasets n_faulty == n_stale == 0 and
/// rmsre_clean equals the unconditional RMSRE.
struct conditioned_rmsre {
    double rmsre_clean{0.0};
    std::size_t n_clean{0};
    double rmsre_faulty{0.0};  ///< epochs with any fault flag set
    std::size_t n_faulty{0};
    double rmsre_stale{0.0};   ///< scored from a stale fallback measurement
    std::size_t n_stale{0};
};
[[nodiscard]] conditioned_rmsre rmsre_conditioned(const predictor_result& result);

/// Pull-based record source for evaluate_stream: fill `out` with the next
/// record and return true, or return false at end of data. Records must
/// arrive grouped by (path, trace) in ascending (path, trace) order — the
/// order dataset::traces() iterates and the linear order a record store
/// (testbed/record_store.hpp) streams, so a store reader plugs in directly.
using record_source = std::function<bool(testbed::epoch_record&)>;

/// One trace's RMSRE in a streamed evaluation (the per-trace scalars of
/// trace_result, without the per-epoch payload).
struct stream_trace_rmsre {
    int path_id{0};
    int trace_id{0};
    double rmsre{0.0};
    std::size_t epochs{0};  ///< scored epochs behind the RMSRE
};

/// One predictor's summary from a streamed evaluation: everything the
/// analysis tools print, at O(traces) memory instead of O(epochs).
/// Bitwise-identical to summarize() of the in-memory engine's
/// predictor_result on the same records (the equivalence the stream tests
/// pin): same per-trace RMSREs, same conditioned aggregation, same optional
/// epoch-error list.
struct stream_predictor_summary {
    std::string name;  ///< canonical spec (predictor::name())
    std::vector<stream_trace_rmsre> traces;
    std::size_t traces_unscored{0};
    conditioned_rmsre conditioned{};
    /// Per-epoch relative errors in trace order; filled only when the
    /// predictor's index is listed in stream_eval_options::keep_epoch_errors
    /// (this is the one O(epochs) field — opt in per predictor).
    std::vector<double> epoch_errors;

    /// Per-trace RMSRE values, trace order (for CDFs over traces).
    [[nodiscard]] std::vector<double> trace_rmsres() const;
};

struct stream_eval_options {
    /// Engine knobs. `jobs` is ignored: the stream walk is one pass, serial
    /// by construction — and the engine's determinism contract makes the
    /// result identical to any parallel in-memory run anyway.
    engine_options engine{};
    /// Indices into the spec list whose per-epoch errors to keep.
    std::vector<std::size_t> keep_epoch_errors{};
};

/// One-pass streaming evaluation: pull records from `source`, buffer ONE
/// (path, trace) series at a time, and on each trace boundary run the
/// engine's own per-trace function (build_view → optional LSO scan →
/// clone_empty → score_walk) for every spec, folding each trace's result
/// into the summary through the same fold summarize() uses. Peak memory is
/// O(longest trace + traces·specs), independent of the dataset size. Throws
/// core::predictor_spec_error on a bad spec before pulling any record.
[[nodiscard]] std::vector<stream_predictor_summary> evaluate_stream(
    const record_source& source, const std::vector<std::string>& specs,
    const stream_eval_options& opts = {});

/// Collapse an in-memory predictor_result to the streamed summary form —
/// the bridge that lets one report printer serve both evaluation paths.
[[nodiscard]] stream_predictor_summary summarize(const predictor_result& result,
                                                 bool keep_epoch_errors);

/// Per-path error distribution summary (Fig. 7).
struct path_error_summary {
    int path_id{0};
    double p10{0.0};
    double median{0.0};
    double p90{0.0};
    std::size_t samples{0};
};
[[nodiscard]] std::vector<path_error_summary> error_per_path(
    const predictor_result& result);

/// Per-trace (CoV, RMSRE) pairs for a predictor spec (Fig. 20). Paper
/// §6.1.3: both sides exclude detected outliers; the CoV is additionally
/// computed per stationary period and weighted.
struct cov_rmsre_point {
    int path_id{0};
    int trace_id{0};
    double cov{0.0};
    double rmsre{0.0};
};
[[nodiscard]] std::vector<cov_rmsre_point> cov_vs_rmsre(
    const testbed::dataset& data, const std::string& spec,
    core::predictor_config cfg = {});

}  // namespace tcppred::analysis
