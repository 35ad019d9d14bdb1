#include "testbed/dataset.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "core/checked_parse.hpp"
#include "core/units.hpp"
#include "obs/counters.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::testbed {

dataset_error::dataset_error(std::filesystem::path file, std::size_t line,
                             std::size_t column, const std::string& reason)
    : std::runtime_error(file.string() + ":" + std::to_string(line) + ":" +
                         std::to_string(column) + ": " + reason),
      file_(std::move(file)),
      line_(line),
      column_(column) {}

void split_fields(std::string_view line, char sep, std::vector<std::string_view>& out) {
    out.clear();
    std::size_t start = 0;
    // Stopping once `start` reaches the end is what drops one trailing
    // empty field: "a,b," ends there right after "b".
    while (start < line.size()) {
        const std::size_t at = line.find(sep, start);
        if (at == std::string_view::npos) {
            out.push_back(line.substr(start));
            return;
        }
        out.push_back(line.substr(start, at - start));
        start = at + 1;
    }
}

std::vector<std::string> split_fields(std::string_view line, char sep) {
    std::vector<std::string_view> views;
    split_fields(line, sep, views);
    return {views.begin(), views.end()};
}

namespace {

constexpr int k_max_prefixes = 3;
/// The CSV's prefix-goodput columns, after the measured doubles.
constexpr std::array<std::string_view, 2 * k_max_prefixes> k_prefix_columns{
    "prefix0_s", "prefix0_bps", "prefix1_s", "prefix1_bps", "prefix2_s", "prefix2_bps"};
/// Leading columns of a record line: path, trace, epoch and the measured
/// doubles the CSV carries; prefix pairs and the fault column may follow.
constexpr std::size_t k_record_columns =
    3 + static_cast<std::size_t>(std::ranges::count_if(
            k_measured_fields, [](const measured_field& mf) { return !mf.csv_column.empty(); }));
static_assert(k_record_columns == 14, "the v1 CSV's record columns are fixed");

path_class class_from_string(std::string_view s) {
    if (s == "dsl") return path_class::dsl;
    if (s == "eu") return path_class::transatlantic;
    if (s == "kr") return path_class::transpacific;
    return path_class::us_university;
}

/// One CSV line's fields, views into the line, plus enough context to
/// produce a precise dataset_error. Field indices are 0-based internally;
/// reported columns are 1-based. Every number goes through
/// core/checked_parse with `knob` naming the column.
class row_parser {
public:
    row_parser(const std::filesystem::path& file, std::size_t line_no,
               const std::vector<std::string_view>& fields, std::size_t column_offset = 0)
        : file_(file), line_(line_no), fields_(fields), offset_(column_offset) {}

    [[nodiscard]] std::size_t size() const noexcept { return fields_.size(); }

    [[nodiscard]] std::string_view raw(std::size_t i) const {
        if (i >= fields_.size()) {
            throw dataset_error(file_, line_, offset_ + i + 1,
                                "missing field (line has only " +
                                    std::to_string(fields_.size()) + ")");
        }
        return fields_[i];
    }

    /// A measured double (core::parse_checked_measurement): NaN passes as a
    /// failed measurement; a loss rate must also be in [0, 1].
    [[nodiscard]] double num(std::size_t i, std::string_view knob,
                             bool loss_rate = false) const {
        const std::string_view s = raw(i);
        try {
            return core::parse_checked_measurement(knob, s, loss_rate);
        } catch (const core::parse_error& e) {
            throw dataset_error(file_, line_, offset_ + i + 1, e.what());
        }
    }

    [[nodiscard]] int integer(std::size_t i, std::string_view knob,
                              std::int64_t min = INT32_MIN) const {
        const std::string_view s = raw(i);
        try {
            return static_cast<int>(core::parse_checked_int(knob, s, min, INT32_MAX));
        } catch (const core::parse_error& e) {
            throw dataset_error(file_, line_, offset_ + i + 1, e.what());
        }
    }

private:
    const std::filesystem::path& file_;
    std::size_t line_;
    const std::vector<std::string_view>& fields_;
    std::size_t offset_;
};

/// The record of one CSV record line, already split into `f`.
epoch_record parse_csv_record(const row_parser& f, bool has_fault_column) {
    epoch_record r;
    r.path_id = f.integer(0, "path");
    r.trace_id = f.integer(1, "trace");
    r.epoch_index = f.integer(2, "epoch");
    std::size_t i = 3;
    for (const measured_field& mf : k_measured_fields) {
        if (!mf.csv_column.empty()) r.m.*mf.member = f.num(i++, mf.csv_column, mf.loss_rate);
    }
    for (std::size_t p = 0; p < k_prefix_columns.size(); p += 2) {
        if (i + p + 1 < f.size()) {
            const double prefix_s = f.num(i + p, k_prefix_columns[p]);
            const double bps = f.num(i + p + 1, k_prefix_columns[p + 1]);
            if (prefix_s > 0.0) r.m.prefix_goodputs.emplace_back(prefix_s, bps);
        }
    }
    if (has_fault_column) {
        r.m.fault_flags =
            static_cast<std::uint32_t>(f.integer(i + k_prefix_columns.size(), "fault_flags", 0));
    }
    return r;
}

}  // namespace

std::map<std::pair<int, int>, std::vector<const epoch_record*>> dataset::traces() const {
    std::map<std::pair<int, int>, std::vector<const epoch_record*>> out;
    for (const auto& r : records) out[{r.path_id, r.trace_id}].push_back(&r);
    for (auto& [key, recs] : out) {
        std::sort(recs.begin(), recs.end(), [](const epoch_record* a, const epoch_record* b) {
            return a->epoch_index < b->epoch_index;
        });
    }
    return out;
}

const path_profile& dataset::profile(int path_id) const {
    for (const auto& p : paths) {
        if (p.id == path_id) return p;
    }
    throw std::out_of_range("dataset: unknown path id " + std::to_string(path_id));
}

// The dataset CSV is the *legacy v1 analysis format*: decimal at precision
// 10, pinned byte-for-byte by the campaign goldens and every downstream
// analysis script. Its determinism contract is "same computation -> same
// bytes", not "parse back bit-exactly" — the bit-exact path is the
// checkpoint / record store (hexd). Hence the explicit ser-hexfloat
// allowances below; new serialization formats must not copy this pattern.

void write_csv_catalog(std::ostream& out, const std::vector<path_profile>& paths) {
    out.precision(10);  // tcppred-lint: allow(ser-hexfloat): legacy v1 format
    // Catalogue summary lines: what post-hoc analysis needs about each path.
    for (const auto& p : paths) {
        out << "#path," << p.id << ',' << p.name << ',' << to_string(p.klass) << ','
            // tcppred-lint: allow(ser-hexfloat): legacy v1 format
            << p.bottleneck_capacity().value() << ',' << p.base_rtt().value() << ','
            // tcppred-lint: allow(ser-hexfloat): legacy v1 format
            << p.forward.at(p.bottleneck).buffer_packets << ',' << p.base_utilization << ','
            << p.elastic_flows << '\n';
    }
}

void write_csv_header(std::ostream& out, bool any_faults) {
    out << "path,trace,epoch";
    for (const measured_field& mf : k_measured_fields) {
        if (!mf.csv_column.empty()) out << ',' << mf.csv_column;
    }
    for (const std::string_view c : k_prefix_columns) out << ',' << c;
    if (any_faults) out << ",fault_flags";
    out << '\n';
}

void write_csv_record(std::ostream& out, const epoch_record& r, bool any_faults) {
    out.precision(10);  // tcppred-lint: allow(ser-hexfloat): legacy v1 format
    const auto& m = r.m;
    out << r.path_id << ',' << r.trace_id << ',' << r.epoch_index;
    for (const measured_field& mf : k_measured_fields) {
        // tcppred-lint: allow(ser-hexfloat): legacy v1 format
        if (!mf.csv_column.empty()) out << ',' << m.*mf.member;
    }
    for (int i = 0; i < k_max_prefixes; ++i) {
        if (static_cast<std::size_t>(i) < m.prefix_goodputs.size()) {
            out << ',' << m.prefix_goodputs[static_cast<std::size_t>(i)].first << ','
                << m.prefix_goodputs[static_cast<std::size_t>(i)].second;
        } else {
            out << ",0,0";
        }
    }
    if (any_faults) out << ',' << m.fault_flags;
    out << '\n';
}

std::vector<std::string> csv_catalog_lines(const std::vector<path_profile>& paths) {
    std::ostringstream os;
    write_csv_catalog(os, paths);
    std::istringstream is(os.str());
    std::vector<std::string> out;
    out.reserve(paths.size());
    std::string line;
    while (std::getline(is, line)) out.push_back(line);
    return out;
}

path_profile parse_csv_catalog_line(std::string_view line, const std::filesystem::path& file,
                                    std::size_t line_no) {
    if (!line.starts_with("#path,")) throw dataset_error(file, line_no, 0, "not a catalogue line");
    // "#path," is stripped before splitting; report columns relative to the
    // full line so they point at the real file offsets.
    std::vector<std::string_view> fields;
    split_fields(line.substr(6), ',', fields);
    const row_parser f(file, line_no, fields, 1);
    if (f.size() < 8) {
        throw dataset_error(file, line_no, 0,
                            "catalogue line needs 8 fields, has " + std::to_string(f.size()));
    }
    path_profile p;
    p.id = f.integer(0, "id");
    p.name = f.raw(1);
    p.klass = class_from_string(f.raw(2));
    const double cap = f.num(3, "capacity_bps");
    const double rtt = f.num(4, "rtt_s");
    const int buffer = f.integer(5, "buffer_packets");
    if (!(cap > 0.0) || !(rtt > 0.0) || buffer <= 0) {
        throw dataset_error(file, line_no, 0,
                            "catalogue line has non-positive capacity/RTT/buffer");
    }
    // The full hop structure is only needed to *run* epochs.
    p.forward = {net::hop_config{core::bits_per_second{cap}, core::seconds{rtt / 2.0},
                                 static_cast<std::size_t>(buffer)}};
    p.reverse = {net::hop_config{core::bits_per_second{100e6}, core::seconds{rtt / 2.0}, 512}};
    p.bottleneck = 0;
    p.base_utilization = f.num(6, "utilization");
    p.elastic_flows = f.integer(7, "elastic_flows");
    return p;
}

epoch_record csv_normalized_record(const epoch_record& r) {
    static const std::filesystem::path k_context = "<csv_normalized_record>";
    std::ostringstream os;
    write_csv_record(os, r, true);
    std::string line = std::move(os).str();
    line.pop_back();  // the '\n'
    std::vector<std::string_view> fields;
    split_fields(line, ',', fields);
    return parse_csv_record(row_parser(k_context, 1, fields), true);
}

void save_csv(const dataset& data, const std::filesystem::path& file) {
    // The fault column only exists when something actually faulted, so
    // fault-free datasets stay byte-identical to the pre-fault format.
    const bool any_faults =
        std::any_of(data.records.begin(), data.records.end(),
                    [](const epoch_record& r) { return r.m.fault_flags != fault_none; });
    atomic_write_stream(file, "save_csv", [&](std::ostream& out) {
        write_csv_catalog(out, data.paths);
        write_csv_header(out, any_faults);
        for (const auto& r : data.records) write_csv_record(out, r, any_faults);
    });
}

namespace {

/// load_csv with rejection accounting split out so the public entry points
/// can count rejected rows without cluttering the parse itself. Takes the
/// stream rather than a path so the same code serves files and in-memory
/// buffers (the fuzz harness); `file` is error-message context only.
dataset load_csv_impl(std::istream& in, const std::filesystem::path& file) {
    dataset data;
    std::string line;
    std::vector<std::string_view> fields;  // views into `line`
    std::size_t line_no = 0;
    bool header_seen = false;
    bool has_fault_column = false;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        if (line.starts_with("#path,")) {
            data.paths.push_back(parse_csv_catalog_line(line, file, line_no));
            continue;
        }
        split_fields(line, ',', fields);
        if (!header_seen) {  // column header
            header_seen = true;
            has_fault_column =
                std::find(fields.begin(), fields.end(), "fault_flags") != fields.end();
            continue;
        }
        if (fields.size() < k_record_columns) {
            throw dataset_error(file, line_no, 0,
                                "record line needs at least " +
                                    std::to_string(k_record_columns) + " fields, has " +
                                    std::to_string(fields.size()));
        }
        data.records.push_back(
            parse_csv_record(row_parser(file, line_no, fields), has_fault_column));
    }
    return data;
}

/// Shared rejection accounting for both public load_csv entry points.
dataset load_csv_counted(std::istream& in, const std::filesystem::path& context) {
    try {
        return load_csv_impl(in, context);
    } catch (const dataset_error& e) {
        // Parsing is fail-fast, so a load rejects at most one row — but the
        // counter still distinguishes "campaign ran clean" from "some input
        // was refused" in a metrics summary. A line number of 0 means the
        // file itself was unreadable, which is not a row rejection.
        if (e.line() > 0) {
            static const obs::counter c_rejected =
                obs::counter::get("testbed.dataset_rows_rejected");
            c_rejected.add();
        }
        throw;
    }
}

}  // namespace

dataset load_csv(const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in) throw dataset_error(file, 0, 0, "cannot open file");
    return load_csv_counted(in, file);
}

dataset load_csv(std::istream& in, const std::filesystem::path& context) {
    return load_csv_counted(in, context);
}

}  // namespace tcppred::testbed
