#include "testbed/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

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

path_class class_from_string(const std::string& s) {
    if (s == "dsl") return path_class::dsl;
    if (s == "eu") return path_class::transatlantic;
    if (s == "kr") return path_class::transpacific;
    return path_class::us_university;
}

/// One CSV line plus enough context to produce a precise dataset_error.
/// Field indices are 0-based internally; reported columns are 1-based.
class row_parser {
public:
    row_parser(const std::filesystem::path& file, std::size_t line_no,
               std::vector<std::string> fields, std::size_t column_offset = 0)
        : file_(file), line_(line_no), fields_(std::move(fields)),
          offset_(column_offset) {}

    [[nodiscard]] std::size_t size() const noexcept { return fields_.size(); }

    [[nodiscard]] dataset_error error(std::size_t i, const std::string& reason) const {
        return {file_, line_, offset_ + i + 1, reason};
    }

    [[nodiscard]] const std::string& raw(std::size_t i) const {
        if (i >= fields_.size()) {
            throw dataset_error(file_, line_, offset_ + i + 1,
                                "missing field (line has only " +
                                    std::to_string(fields_.size()) + ")");
        }
        return fields_[i];
    }

    /// Any finite or NaN double; rejects empty/garbage/trailing junk.
    [[nodiscard]] double num(std::size_t i) const {
        const std::string& s = raw(i);
        std::size_t consumed = 0;
        double v = 0.0;
        try {
            v = std::stod(s, &consumed);
        } catch (const std::exception&) {
            throw error(i, "expected a number, got \"" + s + "\"");
        }
        if (consumed != s.size()) {
            throw error(i, "trailing junk in numeric field \"" + s + "\"");
        }
        return v;
    }

    /// A loss-rate column: NaN means "measurement missing" and passes
    /// through; anything else must be in [0, 1].
    [[nodiscard]] double prob(std::size_t i) const {
        const double v = num(i);
        if (std::isnan(v)) return v;
        if (!(v >= 0.0 && v <= 1.0)) {
            throw error(i, "probability out of [0,1]: " + raw(i));
        }
        return v;
    }

    [[nodiscard]] int integer(std::size_t i) const {
        const std::string& s = raw(i);
        std::size_t consumed = 0;
        int v = 0;
        try {
            v = std::stoi(s, &consumed);
        } catch (const std::exception&) {
            throw error(i, "expected an integer, got \"" + s + "\"");
        }
        if (consumed != s.size()) {
            throw error(i, "trailing junk in integer field \"" + s + "\"");
        }
        return v;
    }

    [[nodiscard]] std::uint32_t flags(std::size_t i) const {
        const int v = integer(i);
        if (v < 0) throw error(i, "fault_flags must be non-negative");
        return static_cast<std::uint32_t>(v);
    }

private:
    const std::filesystem::path& file_;
    std::size_t line_;
    std::vector<std::string> fields_;
    std::size_t offset_;
};

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

std::vector<double> dataset::throughput_series(int path_id, int trace_id) const {
    std::vector<std::pair<int, double>> tmp;
    for (const auto& r : records) {
        if (r.path_id == path_id && r.trace_id == trace_id) {
            tmp.emplace_back(r.epoch_index, r.m.r_large_bps);
        }
    }
    std::sort(tmp.begin(), tmp.end());
    std::vector<double> out;
    out.reserve(tmp.size());
    for (const auto& [_, v] : tmp) out.push_back(v);
    return out;
}

std::vector<double> dataset::small_window_series(int path_id, int trace_id) const {
    std::vector<std::pair<int, double>> tmp;
    for (const auto& r : records) {
        if (r.path_id == path_id && r.trace_id == trace_id) {
            tmp.emplace_back(r.epoch_index, r.m.r_small_bps);
        }
    }
    std::sort(tmp.begin(), tmp.end());
    std::vector<double> out;
    out.reserve(tmp.size());
    for (const auto& [_, v] : tmp) out.push_back(v);
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
    out << "path,trace,epoch,availbw_bps,phat,phat_events,that_s,ptilde,ttilde_s,"
           "r_large_bps,r_small_bps,tcp_loss,tcp_event_rate,tcp_rtt_s";
    for (int i = 0; i < k_max_prefixes; ++i) out << ",prefix" << i << "_s,prefix" << i << "_bps";
    if (any_faults) out << ",fault_flags";
    out << '\n';
}

void write_csv_record(std::ostream& out, const epoch_record& r, bool any_faults) {
    out.precision(10);  // tcppred-lint: allow(ser-hexfloat): legacy v1 format
    const auto& m = r.m;
    out << r.path_id << ',' << r.trace_id << ',' << r.epoch_index << ','
        // tcppred-lint: allow(ser-hexfloat): legacy v1 format
        << m.avail_bw_bps << ',' << m.phat << ',' << m.phat_events << ','
        // tcppred-lint: allow(ser-hexfloat): legacy v1 format
        << m.that_s << ',' << m.ptilde << ',' << m.ttilde_s << ','
        // tcppred-lint: allow(ser-hexfloat): legacy v1 format
        << m.r_large_bps << ',' << m.r_small_bps << ','
        // tcppred-lint: allow(ser-hexfloat): legacy v1 format
        << m.tcp_loss_rate << ',' << m.tcp_event_rate << ',' << m.tcp_mean_rtt_s;
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

namespace {

/// One double through the v1 CSV's formatter and back through its parser.
double csv_num_round_trip(double v) {
    std::ostringstream os;
    os.precision(10);  // tcppred-lint: allow(ser-hexfloat): legacy v1 format
    os << v;           // tcppred-lint: allow(ser-hexfloat): legacy v1 format
    return std::stod(os.str());
}

}  // namespace

epoch_record csv_normalized_record(const epoch_record& r) {
    epoch_record out;
    out.path_id = r.path_id;
    out.trace_id = r.trace_id;
    out.epoch_index = r.epoch_index;
    out.m.avail_bw_bps = csv_num_round_trip(r.m.avail_bw_bps);
    out.m.phat = csv_num_round_trip(r.m.phat);
    out.m.phat_events = csv_num_round_trip(r.m.phat_events);
    out.m.that_s = csv_num_round_trip(r.m.that_s);
    out.m.ptilde = csv_num_round_trip(r.m.ptilde);
    out.m.ttilde_s = csv_num_round_trip(r.m.ttilde_s);
    out.m.r_large_bps = csv_num_round_trip(r.m.r_large_bps);
    out.m.r_small_bps = csv_num_round_trip(r.m.r_small_bps);
    out.m.tcp_loss_rate = csv_num_round_trip(r.m.tcp_loss_rate);
    out.m.tcp_event_rate = csv_num_round_trip(r.m.tcp_event_rate);
    out.m.tcp_mean_rtt_s = csv_num_round_trip(r.m.tcp_mean_rtt_s);
    // The CSV carries at most k_max_prefixes pairs and the loader keeps only
    // pairs with a positive duration (the "0,0" padding parses to 0 and is
    // dropped); sim_time_s and events are not serialized at all.
    for (int i = 0; i < k_max_prefixes; ++i) {
        if (static_cast<std::size_t>(i) >= r.m.prefix_goodputs.size()) continue;
        const auto& [s, bps] = r.m.prefix_goodputs[static_cast<std::size_t>(i)];
        const double s_rt = csv_num_round_trip(s);
        if (s_rt > 0.0) out.m.prefix_goodputs.emplace_back(s_rt, csv_num_round_trip(bps));
    }
    out.m.sim_time_s = 0.0;
    out.m.events = 0;
    out.m.fault_flags = r.m.fault_flags;
    return out;
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
    std::size_t line_no = 0;
    bool header_seen = false;
    bool has_fault_column = false;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        if (line.rfind("#path,", 0) == 0) {
            // "#path," is stripped before splitting; report columns relative
            // to the full line so they point at the real file offsets.
            const row_parser f(file, line_no, split_fields(line.substr(6), ','), 1);
            if (f.size() < 8) {
                throw dataset_error(file, line_no, 0,
                                    "catalogue line needs 8 fields, has " +
                                        std::to_string(f.size()));
            }
            path_profile p;
            p.id = f.integer(0);
            p.name = f.raw(1);
            p.klass = class_from_string(f.raw(2));
            // Loaded profiles are analysis summaries: a single-hop topology
            // carrying the bottleneck capacity / RTT / buffer of the
            // original (full hop structure is only needed to *run* epochs).
            const double cap = f.num(3);
            const double rtt = f.num(4);
            const int buffer = f.integer(5);
            if (!(cap > 0.0) || !(rtt > 0.0) || buffer <= 0) {
                throw dataset_error(file, line_no, 0,
                                    "catalogue line has non-positive "
                                    "capacity/RTT/buffer");
            }
            p.forward = {net::hop_config{core::bits_per_second{cap},
                                         core::seconds{rtt / 2.0},
                                         static_cast<std::size_t>(buffer)}};
            p.reverse = {net::hop_config{core::bits_per_second{100e6},
                                         core::seconds{rtt / 2.0}, 512}};
            p.bottleneck = 0;
            p.base_utilization = f.num(6);
            p.elastic_flows = f.integer(7);
            data.paths.push_back(std::move(p));
            continue;
        }
        if (!header_seen) {  // column header
            header_seen = true;
            const auto cols = split_fields(line, ',');
            has_fault_column =
                std::find(cols.begin(), cols.end(), "fault_flags") != cols.end();
            continue;
        }
        const row_parser f(file, line_no, split_fields(line, ','));
        if (f.size() < 14) {
            throw dataset_error(file, line_no, 0,
                                "record line needs at least 14 fields, has " +
                                    std::to_string(f.size()));
        }
        epoch_record r;
        r.path_id = f.integer(0);
        r.trace_id = f.integer(1);
        r.epoch_index = f.integer(2);
        r.m.avail_bw_bps = f.num(3);
        // Loss-rate columns come from an untrusted file: validate the [0,1]
        // domain on the way in. NaN is a legal value there — the measurement
        // failed — so validation happens in prob(), not probability::checked
        // (whose contract rejects NaN).
        r.m.phat = f.prob(4);
        r.m.phat_events = f.prob(5);
        r.m.that_s = f.num(6);
        r.m.ptilde = f.prob(7);
        r.m.ttilde_s = f.num(8);
        r.m.r_large_bps = f.num(9);
        r.m.r_small_bps = f.num(10);
        r.m.tcp_loss_rate = f.num(11);
        r.m.tcp_event_rate = f.num(12);
        r.m.tcp_mean_rtt_s = f.num(13);
        for (int i = 0; i < k_max_prefixes; ++i) {
            const std::size_t base = 14 + static_cast<std::size_t>(2 * i);
            if (base + 1 < f.size()) {
                const double prefix_s = f.num(base);
                const double bps = f.num(base + 1);
                if (prefix_s > 0.0) r.m.prefix_goodputs.emplace_back(prefix_s, bps);
            }
        }
        if (has_fault_column) {
            r.m.fault_flags = f.flags(14 + 2 * k_max_prefixes);
        }
        data.records.push_back(std::move(r));
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
