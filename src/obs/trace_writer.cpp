#include "obs/trace_writer.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"

namespace tcppred::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};

/// Shortest exact double representation: %.17g round-trips every finite
/// value and is identical across runs for identical values, which is what
/// the cross-job-count trace determinism contract needs.
void append_double(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // JSON has no NaN/Inf literals; the schema strings them.
    if (std::isnan(v)) {
        out += "\"nan\"";
    } else if (std::isinf(v)) {
        out += v > 0 ? "\"inf\"" : "\"-inf\"";
    } else {
        out += buf;
    }
}

void append_escaped(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

}  // namespace

json_line& json_line::str(std::string_view k, std::string_view value) {
    key(k);
    append_escaped(buf_, value);
    return *this;
}

json_line& json_line::num(std::string_view k, double value) {
    key(k);
    append_double(buf_, value);
    return *this;
}

json_line& json_line::num(std::string_view k, std::uint64_t value) {
    key(k);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    buf_ += buf;
    return *this;
}

json_line& json_line::num(std::string_view k, std::int64_t value) {
    key(k);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    buf_ += buf;
    return *this;
}

void json_line::key(std::string_view k) {
    if (!first_) buf_ += ',';
    first_ = false;
    append_escaped(buf_, k);
    buf_ += ':';
}

std::string json_line::done() {
    buf_ += '}';
    return std::move(buf_);
}

trace_writer& trace_writer::instance() {
    // Leaked like the counter registry: producers may emit from thread_local
    // destructors during teardown; close() is the orderly shutdown path.
    static trace_writer* w = new trace_writer;
    return *w;
}

bool trace_writer::enabled() noexcept {
    return g_trace_enabled.load(std::memory_order_relaxed);
}

void trace_writer::open(const std::filesystem::path& file) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (out_.is_open()) {
        throw std::runtime_error("trace_writer: a trace is already open (" +
                                 file_.string() + ")");
    }
    // Opening here makes --trace to an unwritable path fail the tool at once.
    out_.open(file, std::ios::trunc);
    if (!out_) throw std::runtime_error("trace_writer: cannot open " + file.string());
    file_ = file;
    g_trace_enabled.store(true, std::memory_order_relaxed);
}

void trace_writer::emit(std::string line) {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mu_);
    if (!out_.is_open()) return;  // raced with close(): the file is final
    out_ << line << '\n';
}

void trace_writer::close() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!out_.is_open()) return;
    g_trace_enabled.store(false, std::memory_order_relaxed);
    out_.close();
    if (!out_) throw std::runtime_error("trace_writer: write failed on " + file_.string());
}

void init_from_env() {
    static std::atomic<bool> done{false};
    if (done.exchange(true)) return;
    if (const char* env = std::getenv("REPRO_METRICS")) {  // NOLINT(concurrency-mt-unsafe)
        if (*env != '\0' && std::string_view(env) != "0") {
            set_metrics_enabled(true);
            std::atexit([] {
                std::ostringstream os;
                write_metrics_summary(os);
                std::fputs(os.str().c_str(), stderr);
            });
        }
    }
    // A trace the caller already opened (--trace) wins over $REPRO_TRACE.
    if (const char* env = std::getenv("REPRO_TRACE")) {  // NOLINT(concurrency-mt-unsafe)
        if (*env != '\0' && !trace_writer::enabled()) {
            trace_writer::instance().open(env);
            // The singleton is leaked (see instance()), so an env-opened
            // trace needs an explicit flush point at process exit.
            std::atexit([] {
                try {
                    trace_writer::instance().close();
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "error: %s\n", e.what());
                }
            });
        }
    }
}

namespace {

/// One "VmPeak:  1234 kB"-style value from /proc/self/status, in kB, or -1
/// when unavailable (non-Linux, or the kernel interface changed).
long proc_status_kb([[maybe_unused]] const char* key) {
#ifdef __linux__
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) != 0) continue;
        return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
    }
#endif
    return -1;
}

}  // namespace

void write_metrics_summary(std::ostream& os) {
    const auto counters = counters_snapshot();
    const auto gauges = gauges_snapshot();
    const auto timers = timers_snapshot();
    os << "== metrics summary ==\n";
    // Peak memory of this process (Linux: /proc/self/status), emitted with
    // stable greppable names — the CI mem-cap gate parses these to verify
    // the streamed paths stay under their memory budget.
    if (const long kb = proc_status_kb("VmPeak"); kb >= 0) {
        os << "  process  " << std::left << std::setw(36) << "mem.vm_peak_kb" << ' '
           << kb << '\n';
    }
    if (const long kb = proc_status_kb("VmHWM"); kb >= 0) {
        os << "  process  " << std::left << std::setw(36) << "mem.rss_peak_kb" << ' '
           << kb << '\n';
    }
    if (counters.empty() && gauges.empty() && timers.empty()) {
        os << "  (no counters registered)\n";
        return;
    }
    for (const auto& [name, v] : counters) {
        os << "  counter  " << std::left << std::setw(36) << name << ' ' << v << '\n';
    }
    for (const auto& [name, v] : gauges) {
        os << "  gauge    " << std::left << std::setw(36) << name << ' ' << v << '\n';
    }
    if (!timers.empty()) {
        os << "  stage timers (wall clock):\n";
        os << "    " << std::left << std::setw(34) << "stage" << std::right
           << std::setw(8) << "count" << std::setw(12) << "total_s" << std::setw(12)
           << "p50_s" << std::setw(12) << "p95_s" << std::setw(12) << "max_s" << '\n';
        // The metrics summary is a human-oriented stderr table of wall-clock
        // timings — explicitly volatile, never parsed, never compared across
        // runs — so fixed-precision decimal is the right rendering here.
        for (const auto& [name, st] : timers) {
            os << "    " << std::left << std::setw(34) << name << std::right
               // tcppred-lint: allow(ser-hexfloat): human-facing wall-clock table
               << std::setw(8) << st.count << std::fixed << std::setprecision(4)
               // tcppred-lint: allow(ser-hexfloat): human-facing wall-clock table
               << std::setw(12) << st.total_s << std::setw(12) << st.p50_s
               // tcppred-lint: allow(ser-hexfloat): human-facing wall-clock table
               << std::setw(12) << st.p95_s << std::setw(12) << st.max_s << '\n';
            os.unsetf(std::ios::fixed);
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing / canonicalization

namespace {

[[noreturn]] void bad(const std::string& context, const std::string& why) {
    throw std::runtime_error((context.empty() ? std::string("trace") : context) +
                             ": " + why);
}

}  // namespace

trace_event parse_trace_line(std::string_view line, const std::string& context) {
    trace_event ev;
    std::size_t i = 0;
    const auto skip_ws = [&] {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    };
    const auto expect = [&](char c) {
        if (i >= line.size() || line[i] != c) {
            bad(context, std::string("expected '") + c + "' at offset " +
                             std::to_string(i));
        }
        ++i;
    };
    const auto parse_string = [&]() -> std::string {
        expect('"');
        std::string out;
        while (i < line.size() && line[i] != '"') {
            char c = line[i++];
            if (c == '\\') {
                if (i >= line.size()) bad(context, "dangling escape");
                const char e = line[i++];
                switch (e) {
                    case '"': c = '"'; break;
                    case '\\': c = '\\'; break;
                    case 'n': c = '\n'; break;
                    case 't': c = '\t'; break;
                    case 'r': c = '\r'; break;
                    case 'u': {
                        if (i + 4 > line.size()) bad(context, "short \\u escape");
                        c = static_cast<char>(
                            std::strtol(std::string(line.substr(i, 4)).c_str(),
                                        nullptr, 16));
                        i += 4;
                        break;
                    }
                    default: bad(context, std::string("unknown escape \\") + e);
                }
            }
            out += c;
        }
        expect('"');
        return out;
    };

    skip_ws();
    expect('{');
    skip_ws();
    if (i < line.size() && line[i] == '}') {
        ++i;
    } else {
        for (;;) {
            skip_ws();
            const std::string key = parse_string();
            skip_ws();
            expect(':');
            skip_ws();
            if (i < line.size() && line[i] == '"') {
                ev[key] = parse_string();
            } else {
                const std::string rest(line.substr(i));
                char* end = nullptr;
                const double v = std::strtod(rest.c_str(), &end);
                if (end == rest.c_str()) {
                    bad(context, "expected a value for key \"" + key + "\"");
                }
                i += static_cast<std::size_t>(end - rest.c_str());
                ev[key] = v;
            }
            skip_ws();
            if (i < line.size() && line[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        expect('}');
    }
    skip_ws();
    if (i != line.size()) bad(context, "trailing junk after object");
    if (ev.find("ev") == ev.end()) bad(context, "event has no \"ev\" key");
    return ev;
}

std::vector<trace_event> read_trace_file(const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in) throw std::runtime_error("cannot open trace " + file.string());
    std::vector<trace_event> out;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        out.push_back(
            parse_trace_line(line, file.string() + ":" + std::to_string(line_no)));
    }
    return out;
}

bool is_volatile_trace_key(std::string_view key) noexcept {
    return key == "ts" || key == "dur_s" || key == "thread";
}

std::string canonical_trace_line(const trace_event& ev) {
    json_line out;
    for (const auto& [key, value] : ev) {  // std::map: keys already sorted
        if (is_volatile_trace_key(key)) continue;
        if (const auto* s = std::get_if<std::string>(&value)) {
            out.str(key, *s);
        } else {
            out.num(key, std::get<double>(value));
        }
    }
    return out.done();
}

std::vector<std::string> canonical_trace_lines(const std::filesystem::path& file) {
    std::vector<std::string> out;
    for (const trace_event& ev : read_trace_file(file)) {
        out.push_back(canonical_trace_line(ev));
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace tcppred::obs
