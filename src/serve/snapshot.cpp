#include "serve/snapshot.hpp"

#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/checked_parse.hpp"
#include "obs/counters.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"

namespace tcppred::serve {

namespace {

constexpr const char* k_magic = "tcppred-serve-snapshot,v1";

/// The longest `ev` line: "ev,", a signed 64-bit epoch, five ',' + hexd
/// texts, ',' + a 32-bit flags word and the newline.
constexpr std::size_t k_max_event_line =
    3 + 20 + 5 * (1 + std::tuple_size_v<testbed::hexd_buffer>) + 1 + 10 + 1;

/// Format one `ev` line into `line`; returns its length.
std::size_t format_event(const observation& ev, std::array<char, k_max_event_line>& line) {
    char* p = line.data();
    char* const end = line.data() + line.size();
    std::memcpy(p, "ev,", 3);
    p = std::to_chars(p + 3, end, ev.epoch).ptr;
    testbed::hexd_buffer hb{};
    for (const double v :
         {ev.avail_bw_bps, ev.phat, ev.phat_events, ev.that_s, ev.r_large_bps}) {
        const std::string_view text = testbed::hexd(v, hb);
        *p++ = ',';
        std::memcpy(p, text.data(), text.size());
        p += text.size();
    }
    *p++ = ',';
    p = std::to_chars(p, end, ev.fault_flags).ptr;
    *p++ = '\n';
    return static_cast<std::size_t>(p - line.data());
}

/// Split `line` on ',' into exactly N fields, views into `line`. Every
/// field counts, an empty last one too ("ev,...,0," has nine), so a line
/// with any other number of fields returns false.
template <std::size_t N>
bool split_exact(std::string_view line, std::array<std::string_view, N>& fields) {
    for (std::size_t i = 0; i < N; ++i) {
        const std::size_t pos = line.find(',');
        fields[i] = line.substr(0, pos);
        if (pos == std::string_view::npos) return i + 1 == N;
        line.remove_prefix(pos + 1);
    }
    return false;
}

[[noreturn]] void bad(const std::filesystem::path& file, std::size_t line_no,
                      const std::string& reason) {
    throw testbed::dataset_error(file, line_no, 0, reason);
}

}  // namespace

std::string join_specs(const std::vector<std::string>& specs) {
    std::string out;
    for (std::size_t j = 0; j < specs.size(); ++j) {
        if (j != 0) out += ';';
        out += specs[j];
    }
    return out;
}

void render_snapshot(const path_table& table, std::ostream& out) {
    out << k_magic << '\n';
    out << "specs," << join_specs(table.specs()) << '\n';
    // One visit holds every shard lock: the count it hands over first and
    // the paths it then walks are the same table.
    std::uint64_t total = 0;
    std::array<char, k_max_event_line> line{};
    table.visit_sorted(
        [&](std::size_t paths) { out << "paths," << paths << '\n'; },
        [&](const std::string& name, const path_state& st) {
            out << "path," << name << ',' << st.log.size() << '\n';
            for (const observation& ev : st.log) {
                out.write(line.data(), static_cast<std::streamsize>(format_event(ev, line)));
            }
            total += st.log.size();
        });
    out << "end," << total << '\n';
}

std::string render_snapshot(const path_table& table) {
    std::ostringstream out;
    render_snapshot(table, out);
    return std::move(out).str();
}

void write_snapshot(const path_table& table, const std::filesystem::path& file) {
    static const obs::counter c_written = obs::counter::get("serve.snapshots_written");
    testbed::atomic_write_stream(file, "write_snapshot",
                                 [&](std::ostream& out) { render_snapshot(table, out); });
    c_written.add();
}

snapshot_stats load_snapshot(path_table& table, const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in) bad(file, 0, "cannot open snapshot");

    // One line buffer for the whole file; fields are views into it.
    std::string line;
    std::size_t line_no = 0;
    const auto next_line = [&]() -> bool {
        if (!std::getline(in, line)) return false;
        ++line_no;
        return true;
    };

    if (!next_line() || line != k_magic) bad(file, 1, "not a serve snapshot (bad magic)");
    if (!next_line() || !line.starts_with("specs,")) bad(file, line_no, "missing specs line");
    const std::string want = join_specs(table.specs());
    const std::string_view got = std::string_view(line).substr(6);
    if (got != want) {
        bad(file, line_no,
            "spec list mismatch: snapshot has \"" + std::string(got) +
                "\", this daemon serves \"" + want + "\" — refusing to resume");
    }
    if (!next_line() || !line.starts_with("paths,")) bad(file, line_no, "missing paths line");
    const auto paths_declared = static_cast<std::size_t>(testbed::parse_u64_field(
        "paths", std::string_view(line).substr(6), file, line_no, 1ULL << 32));

    snapshot_stats stats;
    std::string current_path;
    std::uint64_t remaining = 0;  // events still expected for current_path
    bool saw_end = false;
    std::array<std::string_view, 3> path_fields;
    std::array<std::string_view, 8> f;  // an `ev` line's fields
    while (next_line()) {
        const std::string_view v = line;
        if (v.starts_with("path,")) {
            if (remaining != 0) bad(file, line_no, "path starts before previous one's events end");
            if (!split_exact(v, path_fields)) bad(file, line_no, "malformed path line");
            if (!valid_path_name(path_fields[1])) bad(file, line_no, "illegal path name");
            current_path = path_fields[1];
            remaining =
                testbed::parse_u64_field("events", path_fields[2], file, line_no, 1ULL << 40);
            ++stats.paths;
        } else if (v.starts_with("ev,")) {
            if (current_path.empty() || remaining == 0) {
                bad(file, line_no, "event outside a path block");
            }
            if (!split_exact(v, f)) bad(file, line_no, "malformed event line");
            observation ev;
            try {
                ev.epoch = core::parse_checked_int("epoch", f[1], 0, std::int64_t{1} << 40);
            } catch (const core::parse_error& e) {
                bad(file, line_no, e.what());
            }
            ev.fault_flags = static_cast<std::uint32_t>(
                testbed::parse_u64_field("flags", f[7], file, line_no, 0xffffffffULL));
            ev.avail_bw_bps = testbed::parse_hexd(f[2], file, line_no);
            ev.phat = testbed::parse_hexd(f[3], file, line_no);
            ev.phat_events = testbed::parse_hexd(f[4], file, line_no);
            ev.that_s = testbed::parse_hexd(f[5], file, line_no);
            ev.r_large_bps = testbed::parse_hexd(f[6], file, line_no);
            // Replay through the live apply path: predict-then-observe, so
            // restored state is bitwise what the writer held.
            table.observe(current_path, ev);
            --remaining;
            ++stats.events;
        } else if (v.starts_with("end,")) {
            if (remaining != 0) bad(file, line_no, "end before last path's events");
            const std::uint64_t declared =
                testbed::parse_u64_field("end", v.substr(4), file, line_no, 1ULL << 40);
            if (declared != stats.events) {
                bad(file, line_no, "event count mismatch (truncated snapshot?)");
            }
            saw_end = true;
            break;
        } else if (v.empty()) {
            bad(file, line_no, "unexpected blank line");
        } else {
            bad(file, line_no, "unrecognized line");
        }
    }
    if (!saw_end) bad(file, line_no, "snapshot has no end marker (truncated?)");
    if (stats.paths != paths_declared) {
        bad(file, line_no, "path count mismatch (truncated snapshot?)");
    }
    return stats;
}

}  // namespace tcppred::serve
