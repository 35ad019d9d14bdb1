#include "sim/chaos.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/checked_parse.hpp"
#include "sim/rng.hpp"

namespace tcppred::sim {

namespace {

double parse_nonneg(std::string_view key, std::string_view value, double max) {
    std::size_t pos = 0;
    double v = 0.0;
    const std::string s(value);
    try {
        v = std::stod(s, &pos);
    } catch (const std::exception&) {
        throw std::invalid_argument("chaos_profile: bad value for '" + std::string(key) +
                                    "': " + s);
    }
    if (pos != s.size() || !(v >= 0.0 && v <= max)) {
        throw std::invalid_argument("chaos_profile: value for '" + std::string(key) +
                                    "' out of range: " + s);
    }
    return v;
}

}  // namespace

std::string chaos_profile::spec() const {
    if (!enabled()) return "off";
    std::ostringstream out;
    out.precision(17);  // exact enough to round-trip any configured rate
    bool first = true;
    const chaos_profile defaults{};
    const auto emit = [&](const char* key, double v) {
        out << (first ? "" : ",") << key << '=' << v;
        first = false;
    };
    if (kill_rate != defaults.kill_rate) emit("kill", kill_rate);
    if (hang_rate != defaults.hang_rate) emit("hang", hang_rate);
    if (hang_s != defaults.hang_s) emit("hang-s", hang_s);
    if (seed != 0) out << (first ? "" : ",") << "seed=" << seed;
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
            p.kill_rate = parse_nonneg(key, value, 1.0);
        } else if (key == "hang") {
            p.hang_rate = parse_nonneg(key, value, 1.0);
        } else if (key == "hang-s") {
            p.hang_s = parse_nonneg(key, value, 1e9);
        } else if (key == "seed") {
            p.seed = core::parse_checked_u64("chaos_profile seed", value, 0, UINT64_MAX);
        } else {
            throw std::invalid_argument("chaos_profile: unknown key '" + key + "'");
        }
    }
    if (p.kill_rate + p.hang_rate > 1.0) {
        throw std::invalid_argument("chaos_profile: kill + hang rates exceed 1");
    }
    return p;
}

chaos_profile chaos_profile::from_env() {
    if (const char* spec = std::getenv("REPRO_CHAOS")) return parse(spec);  // NOLINT(concurrency-mt-unsafe)
    return {};
}

chaos_action plan_chaos(const chaos_profile& profile, std::uint64_t campaign_seed,
                        int attempt, std::size_t idx) {
    if (!profile.enabled()) return chaos_action::none;
    const std::uint64_t master = profile.seed != 0 ? profile.seed : campaign_seed;
    rng stream(derive_seed(master, "chaos", static_cast<std::uint64_t>(attempt),
                           static_cast<std::uint64_t>(idx)));
    // Single draw, fixed split: [0, kill) kills, [kill, kill+hang) hangs.
    const double u = stream.uniform();
    if (u < profile.kill_rate) return chaos_action::kill;
    if (u < profile.kill_rate + profile.hang_rate) return chaos_action::hang;
    return chaos_action::none;
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
