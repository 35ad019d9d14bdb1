#include "sim/chaos.hpp"

#include <cstdlib>

#include "core/checked_parse.hpp"
#include "sim/rate_spec.hpp"
#include "sim/rng.hpp"

namespace tcppred::sim {

namespace {

constexpr rate_key<chaos_profile> k_keys[] = {{"kill", &chaos_profile::kill_rate}};

}  // namespace

std::string chaos_profile::spec() const { return render_rate_spec(*this, k_keys); }

chaos_profile chaos_profile::parse(std::string_view spec) {
    return parse_rate_spec("chaos_profile", spec, k_keys);
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
