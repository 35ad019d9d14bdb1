#include "testbed/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "core/checked_parse.hpp"
#include "net/cross_traffic.hpp"

namespace tcppred::testbed {

std::string_view hexd(double v, hexd_buffer& buf) noexcept {
    // The IEEE-754 fields printed the way glibc's "%a" prints them: a
    // normal number as 0x1.<fraction>p<exponent>, a subnormal as
    // 0x0.<fraction>p-1022, the 13 fraction digits without trailing zeros.
    constexpr char k_digits[] = "0123456789abcdef";
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
    std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
    char* p = buf.data();
    if ((bits >> 63) != 0) *p++ = '-';
    if (biased == 0x7ff) {
        std::memcpy(p, fraction != 0 ? "nan" : "inf", 3);
        return {buf.data(), static_cast<std::size_t>(p + 3 - buf.data())};
    }
    *p++ = '0';
    *p++ = 'x';
    *p++ = biased == 0 ? '0' : '1';
    int exponent = biased == 0 ? (fraction == 0 ? 0 : -1022) : biased - 1023;
    if (fraction != 0) {
        int digits = 13;
        for (; (fraction & 0xf) == 0; fraction >>= 4) --digits;
        *p++ = '.';
        for (int i = digits - 1; i >= 0; --i, fraction >>= 4) p[i] = k_digits[fraction & 0xf];
        p += digits;
    }
    *p++ = 'p';
    *p++ = exponent < 0 ? '-' : '+';
    if (exponent < 0) exponent = -exponent;
    p = std::to_chars(p, buf.data() + buf.size(), exponent).ptr;
    return {buf.data(), static_cast<std::size_t>(p - buf.data())};
}

std::string hexd(double v) {
    hexd_buffer buf{};
    return std::string(hexd(v, buf));
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

std::vector<fingerprint_field> campaign_fingerprint_fields(const campaign_config& cfg) {
    // v4: one slot per settable value that reaches a record (not the job
    // count, or epoch.tcp.max_window_bytes, which each transfer overrides;
    // DESIGN.md §10.4). Every double goes through hexd, so the string is a
    // pure function of the config bits. A fingerprint is compared for
    // equality (and positionally diffed on mismatch), never parsed back, so
    // a version bump simply refuses older journals and stores. The
    // serialization must never change without bumping it.
    std::vector<fingerprint_field> f;
    f.push_back({"version", "v4"});
    f.push_back({"simulator_revision", std::to_string(k_simulator_revision)});
    f.push_back({"paths", std::to_string(cfg.paths)});
    f.push_back({"traces_per_path", std::to_string(cfg.traces_per_path)});
    f.push_back({"epochs_per_trace", std::to_string(cfg.epochs_per_trace)});
    f.push_back({"seed", std::to_string(cfg.seed)});
    f.push_back({"second_set", std::to_string(cfg.second_set ? 1 : 0)});
    f.push_back({"faults", cfg.faults.spec()});
    f.push_back({"epoch.warmup_s", hexd(cfg.epoch.warmup.value())});
    f.push_back({"epoch.transfer_s", hexd(cfg.epoch.transfer.value())});
    f.push_back({"epoch.run_small_window",
                 std::to_string(cfg.epoch.run_small_window ? 1 : 0)});
    f.push_back({"epoch.run_pathload", std::to_string(cfg.epoch.run_pathload ? 1 : 0)});
    f.push_back({"epoch.prior_ping.count", std::to_string(cfg.epoch.prior_ping.count)});
    f.push_back({"epoch.prior_ping.interval_s",
                 hexd(cfg.epoch.prior_ping.interval.value())});
    const tcp::tcp_config& tcp_cfg = cfg.epoch.tcp;
    f.push_back({"epoch.tcp.variant",
                 tcp_cfg.variant == tcp::tcp_variant::sack      ? "sack"
                 : tcp_cfg.variant == tcp::tcp_variant::newreno ? "newreno"
                                                                : "tahoe"});
    f.push_back({"epoch.tcp.initial_ssthresh_segments",
                 std::to_string(tcp_cfg.initial_ssthresh_segments)});
    f.push_back({"epoch.tcp.max_rto_backoff", std::to_string(tcp_cfg.max_rto_backoff)});
    f.push_back({"epoch.tcp.delayed_ack", std::to_string(tcp_cfg.delayed_ack ? 1 : 0)});
    f.push_back({"epoch.cross",
                 cfg.epoch.cross == net::cross_model::fluid ? "fluid" : "packet"});
    for (std::size_t i = 0; i < cfg.epoch.prefix_s.size(); ++i) {
        f.push_back({"epoch.prefix_s[" + std::to_string(i) + "]",
                     "px" + hexd(cfg.epoch.prefix_s[i])});
    }
    return f;
}

std::string campaign_fingerprint(const campaign_config& cfg) {
    // Exactly the '|'-join of the field values.
    std::ostringstream os;
    bool first = true;
    for (const fingerprint_field& f : campaign_fingerprint_fields(cfg)) {
        if (!first) os << '|';
        os << f.value;
        first = false;
    }
    return os.str();
}

std::string describe_fingerprint_mismatch(const std::string& in_store,
                                          const std::string& requested) {
    // Positional slot names from the schema above: a default config has no
    // prefixes, so its fields are exactly the fixed slots, and every slot
    // past them is a prefix.
    static const std::vector<fingerprint_field> fixed =
        campaign_fingerprint_fields(campaign_config{});
    const auto old_f = split_fields(in_store, '|');
    const auto new_f = split_fields(requested, '|');
    const auto name_of = [&](std::size_t i) -> std::string {
        if (i < fixed.size()) return fixed[i].name;
        return "epoch.prefix_s[" + std::to_string(i - fixed.size()) + "]";
    };
    std::ostringstream os;
    // Another version is another layout: its slots do not line up with
    // these names, so the version is the one difference worth naming.
    const bool other_version = !old_f.empty() && !new_f.empty() && old_f[0] != new_f[0];
    const std::size_t n = other_version ? 1 : std::max(old_f.size(), new_f.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::string old_v = i < old_f.size() ? old_f[i] : "<absent>";
        const std::string new_v = i < new_f.size() ? new_f[i] : "<absent>";
        if (old_v == new_v) continue;
        os << "\n  " << name_of(i) << ": store=" << old_v
           << " requested=" << new_v;
    }
    if (os.str().empty()) return "\n  (fingerprints differ only in field count)";
    return os.str();
}

std::filesystem::path same_dir_temp(const std::filesystem::path& file) {
    const std::filesystem::path dir =
        file.parent_path().empty() ? std::filesystem::path(".") : file.parent_path();
    return dir / (file.filename().string() + "." + std::to_string(::getpid()) + ".tmp");
}

void atomic_write_stream(const std::filesystem::path& file, std::string_view who,
                         const std::function<void(std::ostream&)>& write) {
    const std::filesystem::path tmp = same_dir_temp(file);
    const std::string prefix = std::string(who) + ": ";
    try {
        std::ofstream out(tmp);
        if (!out) throw std::runtime_error(prefix + "cannot open " + tmp.string());
        write(out);
        out.close();
        if (!out) throw std::runtime_error(prefix + "write failed on " + file.string());
        std::error_code ec;
        std::filesystem::rename(tmp, file, ec);
        if (ec) {
            throw std::runtime_error(prefix + "cannot rename " + tmp.string() + " into " +
                                     file.string());
        }
    } catch (...) {
        std::error_code ignore;
        std::filesystem::remove(tmp, ignore);
        throw;
    }
}

}  // namespace tcppred::testbed
