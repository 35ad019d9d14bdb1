// Checked numeric parsing for every operator-facing knob: CLI flag values,
// environment variables, and daemon request fields share one strict parser,
// so "--paths foo", "REPRO_JOBS=banana" and "--jobs -3" fail loudly with a
// diagnostic naming the knob instead of silently becoming 0 (the std::atoi
// behaviour this replaces — PR 10's hardened-input sweep).
//
// Contract (mirrors predictor_spec_error): every rejection throws
// parse_error, a typed std::invalid_argument carrying the knob name and the
// offending text; tools map it to exit code 2 with the message on stderr.
// Accepted inputs parse the ENTIRE token — trailing garbage ("12x"), empty
// strings, overflow, and out-of-range values are all errors, never a
// truncated or defaulted number.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tcppred::core {

/// Thrown on any malformed or out-of-range knob value. `knob()` is the flag
/// or environment variable the value was given for (e.g. "--paths",
/// "REPRO_JOBS"); `text()` is the rejected input.
class parse_error : public std::invalid_argument {
public:
    parse_error(std::string knob, std::string text, const std::string& reason)
        : std::invalid_argument("bad value for " + knob + ": \"" + text + "\" (" +
                                reason + ")"),
          knob_(std::move(knob)),
          text_(std::move(text)) {}

    [[nodiscard]] const std::string& knob() const noexcept { return knob_; }
    [[nodiscard]] const std::string& text() const noexcept { return text_; }

private:
    std::string knob_;
    std::string text_;
};

/// Parse `text` as a decimal integer in [min, max]. Rejects empty input,
/// non-digit characters (including trailing garbage and internal spaces),
/// overflow, and values outside the range. A leading '-' is accepted
/// syntactically so "-3" is reported as out-of-range for a positive knob,
/// not as a malformed number.
[[nodiscard]] std::int64_t parse_checked_int(std::string_view knob, std::string_view text,
                                             std::int64_t min, std::int64_t max);

/// Same contract for unsigned 64-bit knobs (seeds). Rejects '-' outright.
[[nodiscard]] std::uint64_t parse_checked_u64(std::string_view knob,
                                              std::string_view text, std::uint64_t min,
                                              std::uint64_t max);

/// Parse `text` as a finite double in [min, max]. Accepts everything strtod
/// does (decimal, scientific, hexfloat — the repo's bit-exact interchange
/// format), but the whole token must parse and the result must be finite.
[[nodiscard]] double parse_checked_double(std::string_view knob, std::string_view text,
                                          double min, double max);

/// The loss-rate rule: throws parse_error naming `knob` and `text` unless
/// `v` is in [0, 1], or NaN for a failed measurement. Every reader of a
/// measured probe loss rate (p̂, p̂_events, p̃) applies it — the CSV, the
/// record store, OBSERVE and the serve snapshot — because those values
/// reach core::probability, whose constructor asserts [0, 1]. A reader that
/// decodes the number itself (parse_hexd) calls it directly.
void check_loss_rate(std::string_view knob, std::string_view text, double v);

/// Parse `text` as a measured value: the whole token in strtod's grammar
/// (decimal, scientific, hexfloat, inf, nan), NaN standing for a failed
/// measurement. Empty input, leading whitespace, trailing garbage and a
/// value strtod flags ERANGE (overflow, or underflow into the subnormals)
/// are errors. With `loss_rate`, the value must also meet check_loss_rate.
/// `knob` is only read to build an error.
[[nodiscard]] double parse_checked_measurement(std::string_view knob, std::string_view text,
                                               bool loss_rate);

}  // namespace tcppred::core
