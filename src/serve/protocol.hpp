// The serve daemon's line-oriented request protocol (DESIGN.md §17).
//
// One request per line, ASCII, space-separated fields:
//
//   OBSERVE <path> <epoch> <availbw> <phat> <phat_events> <that_s> <r_large> <flags>
//       Append one epoch's measurement to <path>'s series. Doubles are any
//       strtod-parseable form; the bit-exact interchange format is hexfloat
//       (testbed::hexd), and "nan" marks a faulted field. <flags> is the
//       epoch_fault_flag bitmask (decimal).
//   PREDICT <path> <spec>
//       Return the cached forecast <spec> made at <path>'s latest epoch.
//   STATS
//       One-line daemon summary (paths, observations, specs).
//   SNAPSHOT
//       Synchronously persist a snapshot (needs --snapshot).
//
// Responses are single lines: "OK[ fields...]" or "ERR <reason>". This
// parser is the daemon's untrusted-input boundary — every malformed line
// must surface as protocol_error, never as a crash or a contract violation
// downstream (core::probability asserts its [0,1] invariant, so loss-rate
// fields are range-checked HERE). It is fuzzed (tests/fuzz/fuzz_serve_request).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tcppred::serve {

/// Hard cap on one request line (bytes, excluding the newline). The server
/// drops connections that exceed it; the parser rejects longer inputs too
/// so the limit cannot be bypassed by other transports.
inline constexpr std::size_t k_max_line_bytes = 64 * 1024;

/// Hard cap on a path name; keeps per-path keys (and snapshot lines) small.
inline constexpr std::size_t k_max_path_bytes = 256;

/// Thrown on any malformed request line. The message is safe to echo back
/// to the client ("ERR <what()>").
class protocol_error : public std::runtime_error {
public:
    explicit protocol_error(const std::string& reason) : std::runtime_error(reason) {}
};

/// One OBSERVE payload: the a-priori measurement fields the engine's
/// default view consumes (analysis::view_of_record) plus the fault bitmask.
/// This is also the unit of the snapshot replay log (snapshot.hpp).
struct observation {
    std::int64_t epoch{0};
    double avail_bw_bps{0.0};
    double phat{0.0};
    double phat_events{0.0};
    double that_s{0.0};
    double r_large_bps{0.0};
    std::uint32_t fault_flags{0};
};

/// One measured double of an observation: its field name in OBSERVE's
/// errors and whether it is a probe loss rate.
struct observed_field {
    std::string_view name;
    double observation::*member;
    bool loss_rate;
};

/// The observation's doubles in the order an OBSERVE line and a snapshot's
/// `ev` line carry them.
inline constexpr std::array<observed_field, 5> k_observed_fields{{
    {"availbw", &observation::avail_bw_bps, false},
    {"phat", &observation::phat, true},
    {"phat_events", &observation::phat_events, true},
    {"that_s", &observation::that_s, false},
    {"r_large", &observation::r_large_bps, false},
}};

/// The rule an observed value meets however it arrives, parsed from
/// OBSERVE or decoded from a snapshot event: finite or NaN, and a loss rate
/// also core::check_loss_rate's rule. Throws core::parse_error naming the
/// field.
void check_observed(const observed_field& f, std::string_view text, double v);

enum class request_kind { observe, predict, stats, snapshot };

/// One parsed request. `path`/`spec`/`obs` are meaningful per kind.
struct request {
    request_kind kind{request_kind::stats};
    std::string path;
    std::string spec;  ///< PREDICT only
    observation obs{};  ///< OBSERVE only
};

/// Whether `path` is a legal path key: 1..k_max_path_bytes characters from
/// [A-Za-z0-9_./:-]. The charset deliberately excludes ',' and whitespace so
/// path names embed verbatim in snapshot lines and response fields.
[[nodiscard]] bool valid_path_name(std::string_view path) noexcept;

/// Parse one request line (no trailing newline). Throws protocol_error on
/// anything malformed: unknown verb, wrong field count, bad numbers,
/// loss rates outside [0,1], non-finite non-NaN fields, illegal path names.
[[nodiscard]] request parse_request_line(std::string_view line);

/// Render an OBSERVE line for `path` carrying `obs`, doubles in hexfloat —
/// the exact inverse of parse_request_line (loadgen and tests use this).
[[nodiscard]] std::string format_observe(std::string_view path, const observation& obs);

}  // namespace tcppred::serve
