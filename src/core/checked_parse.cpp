#include "core/checked_parse.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace tcppred::core {

namespace {

[[noreturn]] void reject(std::string_view knob, std::string_view text,
                         const std::string& reason) {
    throw parse_error(std::string(knob), std::string(text), reason);
}

/// strtoll/strtoull/strtod all need a NUL-terminated buffer and an end
/// pointer check; centralize the "whole token or nothing" plumbing.
template <typename Value, typename Fn>
Value strto_whole(std::string_view knob, std::string_view text, Fn fn,
                  const char* what) {
    if (text.empty()) reject(knob, text, std::string("expected ") + what);
    // strto* skip leading whitespace; the whole-token contract does not.
    if (std::isspace(static_cast<unsigned char>(text.front()))) {
        reject(knob, text, std::string("expected ") + what);
    }
    const std::string buf(text);
    errno = 0;
    char* end = nullptr;
    const Value v = fn(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || end == buf.c_str()) {
        reject(knob, text, std::string("expected ") + what);
    }
    if (errno == ERANGE) {
        if constexpr (std::is_floating_point_v<Value>) {
            if (!std::isinf(v)) reject(knob, text, "value underflows");
        }
        reject(knob, text, "value overflows");
    }
    return v;
}

/// Fast path for the canonical token: std::from_chars parses in place,
/// with no copy and no locale. Anything it does not consume whole — a sign
/// it refuses ('+'), a space, trailing garbage, an overflow — falls back to
/// strto_whole, so what is accepted and every message stay strtoll's.
template <typename Value, typename Fn>
Value from_chars_or(std::string_view knob, std::string_view text, Fn fallback,
                    const char* what) {
    Value v{};
    const char* const last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec == std::errc{} && ptr == last) return v;
    return strto_whole<Value>(knob, text, fallback, what);
}

double strtod_whole(std::string_view knob, std::string_view text) {
    return strto_whole<double>(
        knob, text, [](const char* s, char** end) { return std::strtod(s, end); },
        "a number");
}

std::string range_msg(const std::string& lo, const std::string& hi) {
    return "expected a value in [" + lo + ", " + hi + "]";
}

}  // namespace

std::int64_t parse_checked_int(std::string_view knob, std::string_view text,
                               std::int64_t min, std::int64_t max) {
    const long long v = from_chars_or<long long>(
        knob, text, [](const char* s, char** end) { return std::strtoll(s, end, 10); },
        "an integer");
    if (v < min || v > max) {
        reject(knob, text, range_msg(std::to_string(min), std::to_string(max)));
    }
    return v;
}

std::uint64_t parse_checked_u64(std::string_view knob, std::string_view text,
                                std::uint64_t min, std::uint64_t max) {
    // strtoull silently negates "-1"; forbid the sign before parsing.
    if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
        reject(knob, text, "expected an unsigned integer");
    }
    const unsigned long long v = from_chars_or<unsigned long long>(
        knob, text, [](const char* s, char** end) { return std::strtoull(s, end, 10); },
        "an unsigned integer");
    if (v < min || v > max) {
        reject(knob, text, range_msg(std::to_string(min), std::to_string(max)));
    }
    return v;
}

double parse_checked_double(std::string_view knob, std::string_view text, double min,
                            double max) {
    const double v = strtod_whole(knob, text);
    if (!std::isfinite(v)) reject(knob, text, "expected a finite number");
    if (v < min || v > max) {
        reject(knob, text, range_msg(std::to_string(min), std::to_string(max)));
    }
    return v;
}

void check_loss_rate(std::string_view knob, std::string_view text, double v) {
    if (!std::isnan(v) && !(v >= 0.0 && v <= 1.0)) {
        reject(knob, text, "loss rate must be in [0,1] or nan");
    }
}

double parse_checked_measurement(std::string_view knob, std::string_view text,
                                 bool loss_rate) {
    // Fast path, in place: a value from_chars decodes from the whole token
    // and that lies strictly between DBL_MIN and ±inf is strtod's, bit for
    // bit, with no ERANGE. Zero, the subnormals (which from_chars takes
    // without the underflow strtod reports), inf, nan and every token it
    // does not take whole go through strtod_whole, which decides what is
    // accepted and the message.
    double v = 0.0;
    const char* const last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc{} || ptr != last || !std::isfinite(v) ||
        !(std::fabs(v) > std::numeric_limits<double>::min())) {
        v = strtod_whole(knob, text);
    }
    if (loss_rate) check_loss_rate(knob, text, v);
    return v;
}

}  // namespace tcppred::core
