#include "testbed/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "core/checked_parse.hpp"

namespace tcppred::testbed {

std::string hexd(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

namespace {

/// Whether `t` — "0x" and a leading 0 or 1, the rest of which
/// std::from_chars(hex) decoded whole — has the shape "%a" prints for a
/// finite double: optionally '.' and 1 to 13 hex digits, then 'p', one sign
/// and decimal digits, at most 53 significant bits. In that shape from_chars
/// decodes strtod's bits. Outside it, from_chars takes a doubled exponent
/// sign ("0x1p+-7", where strtod stops at the 'p') and rounds wider
/// mantissas in the subnormal range differently. Only the edges need
/// checking: from_chars has matched every character in between.
bool printed_shape(std::string_view t) {
    std::size_t p = t.size();
    while (p > 3 && t[p - 1] >= '0' && t[p - 1] <= '9') --p;
    // t[p - 1] is then the exponent's one sign, after the 'p'.
    if (p == t.size() || p < 5 || t[p - 2] != 'p') return false;
    const std::size_t mantissa_end = p - 2;
    return mantissa_end == 3 ||
           (t[3] == '.' && mantissa_end >= 5 && mantissa_end <= 4 + 13);
}

}  // namespace

double parse_hexd(std::string_view s, const std::filesystem::path& file,
                  std::size_t line_no) {
    // Fast path: the forms "%a" prints — [-]nan, [-]inf and [-]0x<0 or 1>...
    // in printed_shape — decoded in place. The leading digit is the first
    // guard: after "0x", from_chars(hex) alone would also take "-1", "inf"
    // and "nan" ("0x-1", "0xinf", "0xnan", which strtod stops at the 'x').
    // Every other token, and one from_chars does not decode whole (an
    // exponent out of range), takes the strtod path below, which decides
    // what is accepted and the message.
    std::string_view t = s;
    const bool neg = !t.empty() && t.front() == '-';
    if (neg) t.remove_prefix(1);
    if (t == "nan" || t == "inf") {
        const double v = t == "nan" ? std::numeric_limits<double>::quiet_NaN()
                                    : std::numeric_limits<double>::infinity();
        return neg ? -v : v;
    }
    if (t.size() > 2 && t[0] == '0' && t[1] == 'x' && (t[2] == '0' || t[2] == '1')) {
        double v = 0.0;
        const char* const last = t.data() + t.size();
        const auto [ptr, ec] = std::from_chars(t.data() + 2, last, v, std::chars_format::hex);
        if (ec == std::errc{} && ptr == last && printed_shape(t)) return neg ? -v : v;
    }
    const std::string buf(s);
    char* end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (end == buf.c_str() || *end != '\0') {
        throw dataset_error(file, line_no, 0, "bad hexfloat field \"" + buf + "\"");
    }
    return v;
}

std::uint64_t parse_u64_field(std::string_view name, std::string_view text,
                              const std::filesystem::path& file, std::size_t line_no,
                              std::uint64_t max) {
    try {
        return core::parse_checked_u64(name, text, 0, max);
    } catch (const core::parse_error& e) {
        throw dataset_error(file, line_no, 0, e.what());
    }
}

int parse_i32_field(std::string_view name, std::string_view text,
                    const std::filesystem::path& file, std::size_t line_no) {
    try {
        return static_cast<int>(core::parse_checked_int(name, text, INT32_MIN, INT32_MAX));
    } catch (const core::parse_error& e) {
        throw dataset_error(file, line_no, 0, e.what());
    }
}

namespace {

constexpr std::size_t k_fixed_doubles = 12;  // measurement doubles per record
constexpr char k_magic[] = "tcppred-checkpoint,v1";
/// Per-record prefix-pair ceiling a reader accepts. The campaigns use at
/// most 3; this only bounds hostile inputs (and keeps 20 + 2n from wrapping).
constexpr std::uint64_t k_max_prefixes = 64;

/// Parse one already-split "rec,..." line into (linear index, record).
std::pair<std::size_t, epoch_record> parse_checkpoint_record(
    const std::vector<std::string_view>& f, std::size_t total,
    const std::filesystem::path& file, std::size_t line_no) {
    if (f.size() < 20 || f[0] != "rec") {
        throw dataset_error(file, line_no, 0, "bad checkpoint record line");
    }
    const auto idx = static_cast<std::size_t>(parse_u64_field("index", f[1], file, line_no));
    if (idx >= total) {
        throw dataset_error(file, line_no, 2,
                            "record index " + std::string(f[1]) + " out of range");
    }
    epoch_record r;
    r.path_id = parse_i32_field("path", f[2], file, line_no);
    r.trace_id = parse_i32_field("trace", f[3], file, line_no);
    r.epoch_index = parse_i32_field("epoch", f[4], file, line_no);
    double* const ds[k_fixed_doubles] = {
        &r.m.avail_bw_bps, &r.m.phat,         &r.m.phat_events,
        &r.m.that_s,       &r.m.ptilde,       &r.m.ttilde_s,
        &r.m.r_large_bps,  &r.m.r_small_bps,  &r.m.tcp_loss_rate,
        &r.m.tcp_event_rate, &r.m.tcp_mean_rtt_s, &r.m.sim_time_s};
    for (std::size_t i = 0; i < k_fixed_doubles; ++i) {
        *ds[i] = parse_hexd(f[5 + i], file, line_no);
    }
    r.m.events = parse_u64_field("events", f[17], file, line_no);
    r.m.fault_flags = static_cast<std::uint32_t>(
        parse_u64_field("fault_flags", f[18], file, line_no, UINT32_MAX));
    const auto n_prefix = static_cast<std::size_t>(
        parse_u64_field("prefix count", f[19], file, line_no, k_max_prefixes));
    if (f.size() != 20 + 2 * n_prefix) {
        throw dataset_error(file, line_no, 20, "prefix count disagrees with field count");
    }
    r.m.prefix_goodputs.clear();
    for (std::size_t i = 0; i < n_prefix; ++i) {
        const double s = parse_hexd(f[20 + 2 * i], file, line_no);
        const double bps = parse_hexd(f[21 + 2 * i], file, line_no);
        r.m.prefix_goodputs.emplace_back(s, bps);
    }
    return {idx, std::move(r)};
}

}  // namespace

std::vector<fingerprint_field> campaign_fingerprint_fields(const campaign_config& cfg) {
    // v2: every double goes through hexd so the identity string is a pure
    // function of the config bits, not of decimal formatting. A fingerprint
    // is compared for equality (and positionally diffed on mismatch), never
    // parsed back into a config, so the version bump simply refuses to
    // resume checkpoints written by older binaries. The value serialization
    // here must never change without bumping the version field.
    std::vector<fingerprint_field> f;
    f.push_back({"version", "v2"});
    f.push_back({"paths", std::to_string(cfg.paths)});
    f.push_back({"traces_per_path", std::to_string(cfg.traces_per_path)});
    f.push_back({"epochs_per_trace", std::to_string(cfg.epochs_per_trace)});
    f.push_back({"seed", std::to_string(cfg.seed)});
    f.push_back({"second_set", std::to_string(cfg.second_set ? 1 : 0)});
    f.push_back({"faults", cfg.faults.spec()});
    f.push_back({"epoch.warmup_s", hexd(cfg.epoch.warmup.value())});
    f.push_back({"epoch.transfer_s", hexd(cfg.epoch.transfer.value())});
    f.push_back({"epoch.during_ping_interval_s",
                 hexd(cfg.epoch.during_ping_interval.value())});
    f.push_back({"epoch.large_window_bytes",
                 std::to_string(cfg.epoch.large_window_bytes)});
    f.push_back({"epoch.small_window_bytes",
                 std::to_string(cfg.epoch.small_window_bytes)});
    f.push_back({"epoch.run_small_window",
                 std::to_string(cfg.epoch.run_small_window ? 1 : 0)});
    f.push_back({"epoch.run_pathload", std::to_string(cfg.epoch.run_pathload ? 1 : 0)});
    f.push_back({"epoch.prior_ping.count", std::to_string(cfg.epoch.prior_ping.count)});
    f.push_back({"epoch.prior_ping.interval_s",
                 hexd(cfg.epoch.prior_ping.interval.value())});
    f.push_back({"epoch.pathload_max_rate_factor",
                 hexd(cfg.epoch.pathload_max_rate_factor)});
    f.push_back({"epoch.hard_cap_s", hexd(cfg.epoch.hard_cap.value())});
    for (std::size_t i = 0; i < cfg.epoch.prefix_s.size(); ++i) {
        f.push_back({"epoch.prefix_s[" + std::to_string(i) + "]",
                     "px" + hexd(cfg.epoch.prefix_s[i])});
    }
    return f;
}

std::string campaign_fingerprint(const campaign_config& cfg) {
    // Byte-compatible with the pre-field-diff v2 format: exactly the
    // '|'-join of the field values. (The old direct stream emitted bools as
    // 0/1 via operator<<, which to_string reproduces.)
    std::ostringstream os;
    bool first = true;
    for (const fingerprint_field& f : campaign_fingerprint_fields(cfg)) {
        if (!first) os << '|';
        os << f.value;
        first = false;
    }
    return os.str();
}

std::string describe_fingerprint_mismatch(const std::string& in_checkpoint,
                                          const std::string& requested) {
    // Positional slot names for the v2 layout above. Fields past the fixed
    // schema are the variable-length prefix list.
    static const char* const k_names[] = {
        "version",
        "paths",
        "traces_per_path",
        "epochs_per_trace",
        "seed",
        "second_set",
        "faults",
        "epoch.warmup_s",
        "epoch.transfer_s",
        "epoch.during_ping_interval_s",
        "epoch.large_window_bytes",
        "epoch.small_window_bytes",
        "epoch.run_small_window",
        "epoch.run_pathload",
        "epoch.prior_ping.count",
        "epoch.prior_ping.interval_s",
        "epoch.pathload_max_rate_factor",
        "epoch.hard_cap_s",
    };
    constexpr std::size_t k_fixed = sizeof(k_names) / sizeof(k_names[0]);
    const auto old_f = split_fields(in_checkpoint, '|');
    const auto new_f = split_fields(requested, '|');
    const auto name_of = [&](std::size_t i) -> std::string {
        if (i < k_fixed) return k_names[i];
        return "epoch.prefix_s[" + std::to_string(i - k_fixed) + "]";
    };
    std::ostringstream os;
    const std::size_t n = std::max(old_f.size(), new_f.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::string old_v = i < old_f.size() ? old_f[i] : "<absent>";
        const std::string new_v = i < new_f.size() ? new_f[i] : "<absent>";
        if (old_v == new_v) continue;
        os << "\n  " << name_of(i) << ": checkpoint=" << old_v
           << " requested=" << new_v;
    }
    if (os.str().empty()) return "\n  (fingerprints differ only in field count)";
    return os.str();
}

void atomic_write_text(const std::filesystem::path& file, const std::string& contents) {
    // Temp placement: $TMPDIR when set (keeps half-written files out of
    // shared data directories), else alongside the target. The pid in the
    // name keeps concurrent writers of same-named files (shard workers,
    // parallel tests sharing TMPDIR) from clobbering each other's temps.
    namespace fs = std::filesystem;
    fs::path dir = file.parent_path().empty() ? fs::path(".") : file.parent_path();
    // tcppred-lint: allow(det-env): documented temp-placement knob, not sim state
    if (const char* tmpdir = std::getenv("TMPDIR"); tmpdir && *tmpdir) dir = tmpdir;
    const fs::path tmp =
        dir / (file.filename().string() + "." + std::to_string(::getpid()) + ".tmp");
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out) {
            throw std::runtime_error("atomic_write_text: cannot open " + tmp.string());
        }
        out << contents;
        out.flush();
        if (!out) {
            throw std::runtime_error("atomic_write_text: write failed on " +
                                     tmp.string());
        }
    }
    // Atomic publish: readers see either the old file or the new one, never
    // a torn file. rename(2) cannot cross filesystems — when the temp dir
    // (TMPDIR) sits on another mount it fails EXDEV; fall back to copying
    // next to the target, fsync'ing the copy, and renaming *that*, which is
    // same-filesystem by construction. $TCPPRED_FORCE_EXDEV forces the
    // fallback so tests can cover it without a second mount.
    std::error_code ec;
    // tcppred-lint: allow(det-env): test hook for the EXDEV fallback path
    const bool force_exdev = std::getenv("TCPPRED_FORCE_EXDEV") != nullptr;
    if (!force_exdev) {
        fs::rename(tmp, file, ec);
        if (!ec) return;
        if (ec != std::errc::cross_device_link) {
            fs::remove(tmp, ec);
            throw std::runtime_error("atomic_write_text: cannot rename into " +
                                     file.string());
        }
    }
    const fs::path sibling = file.string() + ".tmp";
    fs::copy_file(tmp, sibling, fs::copy_options::overwrite_existing, ec);
    if (ec) {
        fs::remove(tmp, ec);
        throw std::runtime_error("atomic_write_text: cross-device copy into " +
                                 sibling.string() + " failed");
    }
    // fsync before the final rename: the copy's data must be durable before
    // the name flips, or a crash could publish an empty/short file.
    const int fd = ::open(sibling.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
    fs::rename(sibling, file, ec);
    std::error_code ignore;
    fs::remove(tmp, ignore);
    if (ec) {
        throw std::runtime_error("atomic_write_text: cannot rename " +
                                 sibling.string() + " into " + file.string());
    }
}

checkpoint_journal::checkpoint_journal(std::filesystem::path file,
                                       const std::string& fingerprint, std::size_t total,
                                       bool append)
    : file_(std::move(file)), on_disk_(append) {
    if (!on_disk_) {
        buf_ = std::string(k_magic) + "\nfingerprint," + fingerprint + "\ntotal," +
               std::to_string(total) + '\n';
    }
}

void checkpoint_journal::add(std::size_t idx, const epoch_record& rec) {
    const epoch_measurement& m = rec.m;
    const auto field = [&](const std::string& v) {
        buf_ += ',';
        buf_ += v;
    };
    buf_ += "rec,";
    buf_ += std::to_string(idx);
    for (const int v : {rec.path_id, rec.trace_id, rec.epoch_index}) field(std::to_string(v));
    for (const double v : {m.avail_bw_bps, m.phat, m.phat_events, m.that_s, m.ptilde,
                           m.ttilde_s, m.r_large_bps, m.r_small_bps, m.tcp_loss_rate,
                           m.tcp_event_rate, m.tcp_mean_rtt_s, m.sim_time_s}) {
        field(hexd(v));
    }
    field(std::to_string(m.events));
    field(std::to_string(m.fault_flags));
    field(std::to_string(m.prefix_goodputs.size()));
    for (const auto& [s, bps] : m.prefix_goodputs) {
        field(hexd(s));
        field(hexd(bps));
    }
    buf_ += '\n';
}

bool checkpoint_journal::flush() {
    if (!on_disk_) {
        atomic_write_text(file_, buf_);
        on_disk_ = true;
    } else if (buf_.empty()) {
        return false;
    } else {
        if (!out_.is_open()) out_.open(file_, std::ios::app | std::ios::binary);
        out_ << buf_;
        out_.flush();
        if (!out_) {
            throw std::runtime_error("checkpoint_journal: append failed on " +
                                     file_.string());
        }
    }
    buf_.clear();
    return true;
}

void save_checkpoint(const campaign_checkpoint& ck, const std::filesystem::path& file) {
    checkpoint_journal journal(file, ck.fingerprint, ck.total);
    for (std::size_t i = 0; i < ck.total; ++i) {
        if (ck.done[i]) journal.add(i, ck.records[i]);
    }
    journal.flush();
}

checkpoint_reader::checkpoint_reader(const std::filesystem::path& file,
                                     const std::string& expected_fingerprint,
                                     std::size_t expected_total)
    : own_(file, std::ios::binary), file_(file) {
    if (!own_) {
        throw dataset_error(file_, 0, 0, "cannot open checkpoint");
    }
    read_header(expected_fingerprint, expected_total);
}

checkpoint_reader::checkpoint_reader(std::istream& in, std::filesystem::path context,
                                     const std::string& expected_fingerprint,
                                     std::size_t expected_total)
    : in_(&in), file_(std::move(context)) {
    read_header(expected_fingerprint, expected_total);
}

void checkpoint_reader::read_header(const std::string& expected_fingerprint,
                                    std::size_t expected_total) {
    std::string line;
    auto next_line = [&](const char* what) {
        // A header line must end in '\n': the first flush writes the whole
        // header atomically, so a short one is corruption, not a torn tail.
        if (!std::getline(in(), line) || in().eof()) {
            throw dataset_error(file_, line_no_ + 1, 0,
                                std::string("truncated checkpoint: expected ") + what);
        }
        ++line_no_;
        valid_bytes_ += line.size() + 1;
    };
    next_line("magic");
    if (line != k_magic) {
        throw dataset_error(file_, line_no_, 0, "not a tcppred checkpoint");
    }
    next_line("fingerprint");
    if (line.rfind("fingerprint,", 0) != 0) {
        throw dataset_error(file_, line_no_, 0, "expected fingerprint line");
    }
    fingerprint_ = line.substr(12);
    if (!expected_fingerprint.empty() && fingerprint_ != expected_fingerprint) {
        throw dataset_error(
            file_, line_no_, 0,
            "checkpoint belongs to a different campaign config (fingerprint "
            "mismatch) — refusing to resume; differing fields:" +
                describe_fingerprint_mismatch(fingerprint_, expected_fingerprint));
    }
    next_line("total");
    if (line.rfind("total,", 0) != 0) {
        throw dataset_error(file_, line_no_, 0, "expected total line");
    }
    total_ = static_cast<std::size_t>(
        parse_u64_field("total", std::string_view(line).substr(6), file_, line_no_));
    if (expected_total != 0 && total_ != expected_total) {
        throw dataset_error(file_, line_no_, 0,
                            "checkpoint total " + std::to_string(total_) +
                                " disagrees with the config's " +
                                std::to_string(expected_total) + " epochs");
    }
}

std::optional<std::pair<std::size_t, epoch_record>> checkpoint_reader::next() {
    while (!torn_tail_ && std::getline(in(), line_)) {
        ++line_no_;
        if (in().eof()) {
            torn_tail_ = true;  // no '\n': an append cut short
            break;
        }
        valid_bytes_ += line_.size() + 1;
        if (line_.empty()) continue;
        split_fields(line_, ',', fields_);
        auto rec = parse_checkpoint_record(fields_, total_, file_, line_no_);
        if (last_idx_ && rec.first <= *last_idx_) {
            throw dataset_error(file_, line_no_, 2,
                                "record index " + std::to_string(rec.first) +
                                    " does not ascend (previous " +
                                    std::to_string(*last_idx_) + ")");
        }
        last_idx_ = rec.first;
        return rec;
    }
    return std::nullopt;
}

}  // namespace tcppred::testbed
