#include "testbed/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

namespace tcppred::testbed {

std::string hexd(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

double parse_hexd(const std::string& s, const std::filesystem::path& file,
                  std::size_t line_no) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
        throw dataset_error(file, line_no, 0, "bad hexfloat field \"" + s + "\"");
    }
    return v;
}

namespace {

constexpr std::size_t k_fixed_doubles = 12;  // measurement doubles per record

/// Parse one already-split "rec,..." line into (linear index, record).
/// Shared by the streaming reader and (through it) load_checkpoint.
std::pair<std::size_t, epoch_record> parse_checkpoint_record(
    const std::vector<std::string>& f, std::size_t total,
    const std::filesystem::path& file, std::size_t line_no) {
    if (f.size() < 20 || f[0] != "rec") {
        throw dataset_error(file, line_no, 0, "bad checkpoint record line");
    }
    const auto idx = static_cast<std::size_t>(std::stoull(f[1]));
    if (idx >= total) {
        throw dataset_error(file, line_no, 2, "record index " + f[1] + " out of range");
    }
    epoch_record r;
    r.path_id = std::stoi(f[2]);
    r.trace_id = std::stoi(f[3]);
    r.epoch_index = std::stoi(f[4]);
    double* const ds[k_fixed_doubles] = {
        &r.m.avail_bw_bps, &r.m.phat,         &r.m.phat_events,
        &r.m.that_s,       &r.m.ptilde,       &r.m.ttilde_s,
        &r.m.r_large_bps,  &r.m.r_small_bps,  &r.m.tcp_loss_rate,
        &r.m.tcp_event_rate, &r.m.tcp_mean_rtt_s, &r.m.sim_time_s};
    for (std::size_t i = 0; i < k_fixed_doubles; ++i) {
        *ds[i] = parse_hexd(f[5 + i], file, line_no);
    }
    r.m.events = std::stoull(f[17]);
    r.m.fault_flags = static_cast<std::uint32_t>(std::stoul(f[18]));
    const auto n_prefix = static_cast<std::size_t>(std::stoull(f[19]));
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

void save_checkpoint(const campaign_checkpoint& ck, const std::filesystem::path& file) {
    std::ostringstream out;
    out << "tcppred-checkpoint,v1\n";
    out << "fingerprint," << ck.fingerprint << '\n';
    out << "total," << ck.total << '\n';
    for (std::size_t i = 0; i < ck.total; ++i) {
        if (!ck.done[i]) continue;
        const epoch_record& r = ck.records[i];
        const epoch_measurement& m = r.m;
        out << "rec," << i << ',' << r.path_id << ',' << r.trace_id << ','
            << r.epoch_index << ',' << hexd(m.avail_bw_bps) << ','
            << hexd(m.phat) << ',' << hexd(m.phat_events) << ','
            << hexd(m.that_s) << ',' << hexd(m.ptilde) << ','
            << hexd(m.ttilde_s) << ',' << hexd(m.r_large_bps) << ','
            << hexd(m.r_small_bps) << ',' << hexd(m.tcp_loss_rate) << ','
            << hexd(m.tcp_event_rate) << ',' << hexd(m.tcp_mean_rtt_s) << ','
            << hexd(m.sim_time_s) << ',' << m.events << ',' << m.fault_flags
            << ',' << m.prefix_goodputs.size();
        for (const auto& [s, bps] : m.prefix_goodputs) {
            out << ',' << hexd(s) << ',' << hexd(bps);
        }
        out << '\n';
    }
    atomic_write_text(file, out.str());
}

checkpoint_reader::checkpoint_reader(const std::filesystem::path& file,
                                     const std::string& expected_fingerprint)
    : in_(file), file_(file) {
    if (!in_) {
        throw dataset_error(file_, 0, 0, "cannot open checkpoint");
    }
    std::string line;
    auto next_line = [&](const char* what) {
        if (!std::getline(in_, line)) {
            throw dataset_error(file_, line_no_ + 1, 0,
                                std::string("truncated checkpoint: expected ") + what);
        }
        ++line_no_;
    };
    next_line("magic");
    if (line != "tcppred-checkpoint,v1") {
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
    total_ = static_cast<std::size_t>(std::stoull(line.substr(6)));
}

std::optional<std::pair<std::size_t, epoch_record>> checkpoint_reader::next() {
    std::string line;
    while (std::getline(in_, line)) {
        ++line_no_;
        if (line.empty()) continue;
        return parse_checkpoint_record(split_fields(line, ','), total_, file_, line_no_);
    }
    return std::nullopt;
}

std::optional<campaign_checkpoint> load_checkpoint(
    const std::filesystem::path& file, const std::string& expected_fingerprint) {
    {
        // Missing (or unreadable) file means "no checkpoint yet", not an
        // error — the reader's cannot-open throw is for callers that already
        // know the file must exist (the shard merge).
        std::ifstream probe(file);
        if (!probe) return std::nullopt;
    }
    checkpoint_reader reader(file, expected_fingerprint);
    campaign_checkpoint ck;
    ck.fingerprint = reader.fingerprint();
    ck.total = reader.total();
    ck.done.assign(ck.total, 0);
    ck.records.resize(ck.total);
    while (auto rec = reader.next()) {
        ck.records[rec->first] = std::move(rec->second);
        ck.done[rec->first] = 1;
    }
    return ck;
}

}  // namespace tcppred::testbed
