// Opt-in JSONL run traces — the event half of the observability layer
// (DESIGN.md §12).
//
// When enabled ($REPRO_TRACE=file or a tool's --trace flag) every epoch,
// stage and prediction appends one JSON object line to the trace file.
// Producers format the line and write it, under one mutex, into the buffered
// file stream open() made. Lines land in completion order, which depends on
// the job count; nothing in the simulation reads the trace, and the
// determinism tests compare traces as sorted canonical multisets (below).
// With tracing disabled, enabled() is one relaxed atomic load and nothing on
// the hot path allocates.
//
// Event schema and the volatile-key list live in DESIGN.md §12; the
// canonicalizer below (parse → drop volatile keys → re-serialize with
// sorted keys) is what the determinism tests and `tcppred_analyze
// --from-trace` consume.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tcppred::obs {

/// Incremental builder for one flat JSON object line. Keys are emitted in
/// call order; values are strings, doubles (shortest round-trip form), or
/// unsigned integers.
class json_line {
public:
    json_line& str(std::string_view key, std::string_view value);
    json_line& num(std::string_view key, double value);
    json_line& num(std::string_view key, std::uint64_t value);
    json_line& num(std::string_view key, std::int64_t value);
    /// Finish the object. The builder is spent afterwards.
    [[nodiscard]] std::string done();

private:
    void key(std::string_view k);
    std::string buf_{"{"};
    bool first_{true};
};

/// The process-wide trace sink. Thread-safe; at most one open trace at a
/// time (second open() throws).
class trace_writer {
public:
    [[nodiscard]] static trace_writer& instance();

    /// Start tracing into `file` (truncating it). Throws if it cannot be
    /// opened for writing.
    void open(const std::filesystem::path& file);
    /// Flush and close the file. Idempotent. Throws if a write failed.
    void close();

    /// Fast global check for producers: gate all event construction on this.
    [[nodiscard]] static bool enabled() noexcept;

    /// Write one complete JSON object line (no trailing newline).
    /// Silently drops when tracing is off, so call sites may skip the
    /// enabled() check when they already built the line for other reasons.
    void emit(std::string line);

    trace_writer(const trace_writer&) = delete;
    trace_writer& operator=(const trace_writer&) = delete;

private:
    trace_writer() = default;

    std::mutex mu_;
    std::ofstream out_;
    std::filesystem::path file_;
};

/// Shorthands for producer code.
[[nodiscard]] inline bool trace_enabled() noexcept { return trace_writer::enabled(); }
inline void trace_emit(std::string line) {
    trace_writer::instance().emit(std::move(line));
}

/// Honor the observability environment: $REPRO_TRACE=file opens the trace,
/// $REPRO_METRICS (any non-empty value but "0") enables timing collection
/// and prints the metrics summary to stderr at process exit. Call once from
/// main() or a shared entry point (bench_util does); extra calls are no-ops.
void init_from_env();

/// Human-oriented counters + gauges + stage-timer table (the
/// --metrics-summary output). Gauges and timers are listed only when
/// non-empty.
void write_metrics_summary(std::ostream& os);

/// write_metrics_summary to stderr, at most once per process: a tool's
/// --metrics-summary and $REPRO_METRICS's exit hook both print through it,
/// so a run with both prints one table.
void print_metrics_summary();

// ---------------------------------------------------------------------------
// Trace consumption: parsing, canonicalization (--from-trace, tests, CI).

using trace_value = std::variant<std::string, double>;
using trace_event = std::map<std::string, trace_value>;

/// Parse one flat JSON object line of the schema this writer emits.
/// Throws std::runtime_error (with `context` in the message) on anything
/// malformed — the CI trace validator relies on that.
[[nodiscard]] trace_event parse_trace_line(std::string_view line,
                                           const std::string& context = {});

/// Read a whole JSONL trace file. Empty lines are rejected (the writer
/// never produces them).
[[nodiscard]] std::vector<trace_event> read_trace_file(
    const std::filesystem::path& file);

/// Keys whose values are wall-clock/scheduling facts rather than workload
/// facts: "ts", "dur_s", "thread". Stripped before any determinism compare.
[[nodiscard]] bool is_volatile_trace_key(std::string_view key) noexcept;

/// Canonical form of one event: volatile keys dropped, remaining keys
/// serialized in sorted order. Two runs of the same seed produce the same
/// multiset of canonical lines at any job count.
[[nodiscard]] std::string canonical_trace_line(const trace_event& ev);

/// Canonicalize and sort a whole trace file — the byte sequence the
/// determinism tests compare across job counts.
[[nodiscard]] std::vector<std::string> canonical_trace_lines(
    const std::filesystem::path& file);

}  // namespace tcppred::obs
