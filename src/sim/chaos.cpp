#include "sim/chaos.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/checked_parse.hpp"
#include "sim/rng.hpp"

namespace tcppred::sim {

namespace {

/// The `kill` rate: one whole double in [0, 1].
double parse_kill_rate(std::string_view value) {
    std::size_t pos = 0;
    double v = 0.0;
    const std::string s(value);
    try {
        v = std::stod(s, &pos);
    } catch (const std::exception&) {
        throw std::invalid_argument("chaos_profile: bad value for 'kill': " + s);
    }
    if (pos != s.size() || !(v >= 0.0 && v <= 1.0)) {
        throw std::invalid_argument("chaos_profile: value for 'kill' out of range: " + s);
    }
    return v;
}

}  // namespace

std::string chaos_profile::spec() const {
    if (!enabled()) return "off";
    std::ostringstream out;
    out.precision(17);  // exact enough to round-trip any configured rate
    out << "kill=" << kill_rate;
    if (seed != 0) out << ",seed=" << seed;
    return out.str();
}

chaos_profile chaos_profile::parse(std::string_view spec) {
    chaos_profile p;
    if (spec.empty() || spec == "off") return p;
    std::stringstream ss{std::string(spec)};
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty()) continue;
        const auto eq = item.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("chaos_profile: expected key=value, got '" +
                                        item + "'");
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "kill") {
            p.kill_rate = parse_kill_rate(value);
        } else if (key == "seed") {
            p.seed = core::parse_checked_u64("chaos_profile seed", value, 0, UINT64_MAX);
        } else {
            throw std::invalid_argument("chaos_profile: unknown key '" + key + "'");
        }
    }
    return p;
}

chaos_profile chaos_profile::from_env() {
    if (const char* spec = std::getenv("REPRO_CHAOS")) return parse(spec);  // NOLINT(concurrency-mt-unsafe)
    return {};
}

bool plan_chaos_kill(const chaos_profile& profile, std::uint64_t campaign_seed,
                     int attempt, std::size_t idx) {
    if (!profile.enabled()) return false;
    const std::uint64_t master = profile.seed != 0 ? profile.seed : campaign_seed;
    rng stream(derive_seed(master, "chaos", static_cast<std::uint64_t>(attempt),
                           static_cast<std::uint64_t>(idx)));
    // Single draw: [0, kill) kills.
    return stream.uniform() < profile.kill_rate;
}

int chaos_attempt_from_env() {
    const char* v = std::getenv("REPRO_CHAOS_ATTEMPT");  // NOLINT(concurrency-mt-unsafe)
    if (!v || *v == '\0') return 0;
    // Checked parse: a garbled attempt counter used to silently restart the
    // chaos schedule at attempt 0, which silently changes which epochs die.
    return static_cast<int>(
        core::parse_checked_int("REPRO_CHAOS_ATTEMPT", v, 0, 1 << 30));
}

}  // namespace tcppred::sim
