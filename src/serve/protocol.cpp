#include "serve/protocol.hpp"

#include <cmath>
#include <vector>

#include "core/checked_parse.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::serve {

namespace {

bool path_char(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '/' || c == ':' || c == '-';
}

/// Split on runs of spaces. Any other control/whitespace byte is rejected
/// up front so a request can never smuggle a newline or NUL into a path.
std::vector<std::string_view> tokenize(std::string_view line) {
    for (const char c : line) {
        if (c == ' ') continue;
        if (static_cast<unsigned char>(c) < 0x21 || static_cast<unsigned char>(c) > 0x7e) {
            throw protocol_error("illegal byte in request line");
        }
    }
    std::vector<std::string_view> toks;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && line[i] == ' ') ++i;
        const std::size_t start = i;
        while (i < line.size() && line[i] != ' ') ++i;
        if (i > start) toks.push_back(line.substr(start, i - start));
    }
    return toks;
}

std::string take_path(std::string_view tok) {
    if (!valid_path_name(tok)) {
        throw protocol_error("illegal path name (want 1.." +
                             std::to_string(k_max_path_bytes) +
                             " chars of [A-Za-z0-9_./:-])");
    }
    return std::string(tok);
}

}  // namespace

void check_observed(const observed_field& f, std::string_view text, double v) {
    if (std::isinf(v)) {
        throw core::parse_error(std::string(f.name), std::string(text), "must be finite or nan");
    }
    if (f.loss_rate) core::check_loss_rate(f.name, text, v);
}

bool valid_path_name(std::string_view path) noexcept {
    if (path.empty() || path.size() > k_max_path_bytes) return false;
    for (const char c : path) {
        if (!path_char(c)) return false;
    }
    return true;
}

request parse_request_line(std::string_view line) {
    if (line.size() > k_max_line_bytes) throw protocol_error("request line too long");
    const std::vector<std::string_view> toks = tokenize(line);
    if (toks.empty()) throw protocol_error("empty request line");

    request req;
    const std::string_view verb = toks[0];
    try {
        if (verb == "OBSERVE") {
            if (toks.size() != 9) {
                throw protocol_error(
                    "OBSERVE wants 8 fields: <path> <epoch> <availbw> <phat> "
                    "<phat_events> <that_s> <r_large> <flags>");
            }
            req.kind = request_kind::observe;
            req.path = take_path(toks[1]);
            req.obs.epoch = core::parse_checked_int("epoch", toks[2], 0,
                                                    std::int64_t{1} << 40);
            for (std::size_t i = 0; i < k_observed_fields.size(); ++i) {
                const observed_field& f = k_observed_fields[i];
                const std::string_view tok = toks[3 + i];
                req.obs.*f.member = core::parse_checked_measurement(f.name, tok, false);
                check_observed(f, tok, req.obs.*f.member);
            }
            req.obs.fault_flags = static_cast<std::uint32_t>(
                core::parse_checked_u64("flags", toks[8], 0, 0xffffffffULL));
        } else if (verb == "PREDICT") {
            if (toks.size() != 3) {
                throw protocol_error("PREDICT wants 2 fields: <path> <spec>");
            }
            req.kind = request_kind::predict;
            req.path = take_path(toks[1]);
            req.spec = std::string(toks[2]);
        } else if (verb == "STATS") {
            if (toks.size() != 1) throw protocol_error("STATS takes no fields");
            req.kind = request_kind::stats;
        } else if (verb == "SNAPSHOT") {
            if (toks.size() != 1) throw protocol_error("SNAPSHOT takes no fields");
            req.kind = request_kind::snapshot;
        } else {
            throw protocol_error("unknown verb (want OBSERVE, PREDICT, STATS or "
                                 "SNAPSHOT)");
        }
    } catch (const core::parse_error& e) {
        throw protocol_error(e.what());
    }
    return req;
}

std::string format_observe(std::string_view path, const observation& obs) {
    std::string out = "OBSERVE ";
    out += path;
    out += ' ';
    out += std::to_string(obs.epoch);
    testbed::hexd_buffer hb{};
    for (const observed_field& f : k_observed_fields) {
        out += ' ';
        out += testbed::hexd(obs.*f.member, hb);
    }
    out += ' ';
    out += std::to_string(obs.fault_flags);
    return out;
}

}  // namespace tcppred::serve
