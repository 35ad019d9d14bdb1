// The spec syntax that fault_profile and chaos_profile share: comma-separated
// `key=rate` items, each rate a whole number token in [0, 1], plus an
// optional `seed=N`, N a whole unsigned 64-bit token; "" and "off" are the
// empty spec. One parser and one renderer serve both profiles, so they
// accept the same tokens and render the same way. A profile's spec() enters
// the campaign fingerprint, so the rendering must never change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/checked_parse.hpp"

namespace tcppred::sim {

/// One `key=rate` item of a profile's spec and the field it sets.
template <class Profile>
struct rate_key {
    std::string_view key;
    double Profile::*rate;
};

/// Parse `spec` into a Profile: each item sets the field of its key in
/// `keys`, or the profile's `seed`. An item without '=', a key not in
/// `keys`, a bad rate or a bad seed throws std::invalid_argument naming
/// `profile`.
template <class Profile, std::size_t N>
[[nodiscard]] Profile parse_rate_spec(std::string_view profile, std::string_view spec,
                                      const rate_key<Profile> (&keys)[N]) {
    Profile p;
    if (spec == "off") return p;
    while (!spec.empty()) {
        const std::size_t comma = std::min(spec.find(','), spec.size());
        const std::string_view item = spec.substr(0, comma);
        spec.remove_prefix(std::min(comma + 1, spec.size()));
        if (item.empty()) continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            throw std::invalid_argument(std::string(profile) + ": expected key=value, got '" +
                                        std::string(item) + "'");
        }
        const std::string_view key = item.substr(0, eq);
        const std::string_view value = item.substr(eq + 1);
        const std::string knob = std::string(profile) + ' ' + std::string(key);
        if (key == "seed") {
            p.seed = core::parse_checked_u64(knob, value, 0, UINT64_MAX);
            continue;
        }
        const auto k = std::find_if(std::begin(keys), std::end(keys),
                                    [key](const rate_key<Profile>& r) { return r.key == key; });
        if (k == std::end(keys)) {
            throw std::invalid_argument(std::string(profile) + ": unknown key '" +
                                        std::string(key) + "'");
        }
        p.*(k->rate) = core::parse_checked_double(knob, value, 0.0, 1.0);
    }
    return p;
}

/// The canonical spec of `p`: "off" unless `p.enabled()` (some rate is
/// positive); else every nonzero rate in `keys` order with 17 significant
/// digits (enough to round-trip it), then `seed=N` unless the seed is 0.
template <class Profile, std::size_t N>
[[nodiscard]] std::string render_rate_spec(const Profile& p,
                                           const rate_key<Profile> (&keys)[N]) {
    if (!p.enabled()) return "off";
    std::string out;
    for (const rate_key<Profile>& r : keys) {
        if (p.*(r.rate) == 0.0) continue;
        char rate[32];
        std::snprintf(rate, sizeof rate, "%.17g", p.*(r.rate));
        out.append(out.empty() ? "" : ",").append(r.key).append("=").append(rate);
    }
    if (p.seed != 0) out.append(",seed=").append(std::to_string(p.seed));
    return out;
}

}  // namespace tcppred::sim
