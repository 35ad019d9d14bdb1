#include "sim/fault_injector.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/checked_parse.hpp"
#include "obs/counters.hpp"
#include "sim/rng.hpp"

namespace tcppred::sim {

namespace {

double parse_rate(std::string_view key, std::string_view value) {
    std::size_t pos = 0;
    double rate = 0.0;
    const std::string v(value);
    try {
        rate = std::stod(v, &pos);
    } catch (const std::exception&) {
        throw std::invalid_argument("fault_profile: bad value for '" + std::string(key) +
                                    "': " + v);
    }
    if (pos != v.size() || !(rate >= 0.0 && rate <= 1.0)) {
        throw std::invalid_argument("fault_profile: rate for '" + std::string(key) +
                                    "' must be in [0,1], got " + v);
    }
    return rate;
}

struct knob {
    std::string_view key;  ///< spec key
    double fault_profile::*field;
};

constexpr knob k_knobs[] = {
    {"pathload", &fault_profile::pathload_fail},
    {"ping-timeout", &fault_profile::ping_timeout_rate},
    {"ping-truncate", &fault_profile::ping_truncate},
    {"abort", &fault_profile::transfer_abort},
    {"outage", &fault_profile::outage},
};

}  // namespace

std::string fault_profile::spec() const {
    if (!enabled()) return "off";
    std::ostringstream out;
    out.precision(17);  // exact enough to round-trip any configured rate
    bool first = true;
    const fault_profile defaults{};
    for (const knob& k : k_knobs) {
        if (this->*k.field == defaults.*k.field) continue;
        out << (first ? "" : ",") << k.key << '=' << this->*k.field;
        first = false;
    }
    if (seed != 0) out << (first ? "" : ",") << "seed=" << seed;
    return out.str();
}

fault_profile fault_profile::parse(std::string_view spec) {
    fault_profile p;
    if (spec.empty() || spec == "off") return p;
    std::stringstream ss{std::string(spec)};
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty()) continue;
        const auto eq = item.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("fault_profile: expected key=value, got '" + item +
                                        "'");
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "seed") {
            p.seed = core::parse_checked_u64("fault_profile seed", value, 0, UINT64_MAX);
            continue;
        }
        bool known = false;
        for (const knob& k : k_knobs) {
            if (key == k.key) {
                p.*k.field = parse_rate(k.key, value);
                known = true;
                break;
            }
        }
        if (!known) {
            throw std::invalid_argument("fault_profile: unknown key '" + key + "'");
        }
    }
    return p;
}

fault_profile fault_profile::from_env() {
    if (const char* spec = std::getenv("REPRO_FAULTS")) return parse(spec);  // NOLINT(concurrency-mt-unsafe)
    return {};
}

epoch_fault_plan plan_epoch_faults(const fault_profile& profile,
                                   std::uint64_t campaign_seed, int path_id, int trace,
                                   int epoch) {
    epoch_fault_plan plan;
    if (!profile.enabled()) return plan;

    const std::uint64_t master =
        profile.seed != 0 ? profile.seed : derive_seed(campaign_seed, "fault-master");
    rng r(derive_seed(master, "fault", static_cast<std::uint64_t>(path_id),
                      static_cast<std::uint64_t>(trace),
                      static_cast<std::uint64_t>(epoch)));

    // Fixed draw order: every decision consumes its draws whether or not the
    // corresponding rate is zero, so enabling one fault type never shifts
    // the draws (and hence the placement) of another.
    plan.pathload_fail = r.chance(profile.pathload_fail);

    plan.ping_timeout_rate = profile.ping_timeout_rate;
    plan.ping_fault_seed = derive_seed(master, "ping-drops",
                                       static_cast<std::uint64_t>(path_id),
                                       static_cast<std::uint64_t>(trace),
                                       static_cast<std::uint64_t>(epoch));

    const bool truncate = r.chance(profile.ping_truncate);
    const double truncate_frac = r.uniform(0.2, 0.8);
    if (truncate) plan.ping_truncate_fraction = truncate_frac;

    const bool abort = r.chance(profile.transfer_abort);
    const double abort_frac = r.uniform(0.1, 0.9);
    if (abort) plan.transfer_abort_fraction = abort_frac;

    const bool outage = r.chance(profile.outage);
    const double outage_start = r.uniform(0.0, 0.6);
    const double outage_dur = r.uniform(0.05, 0.2);
    if (outage) {
        plan.outage = true;
        plan.outage_start_fraction = outage_start;
        plan.outage_duration_fraction = outage_dur;
    }

    // Planned-fault counters: these count logical decisions derived purely
    // from seeds, so snapshots are identical at any REPRO_JOBS setting.
    // (ping_timeout_rate is a rate, not a plan-time decision; the probe counts
    // the timeouts it actually injects.)
    static const obs::counter c_pathload = obs::counter::get("fault.pathload_planned");
    static const obs::counter c_truncate =
        obs::counter::get("fault.ping_truncate_planned");
    static const obs::counter c_abort = obs::counter::get("fault.abort_planned");
    static const obs::counter c_outage = obs::counter::get("fault.outage_planned");
    if (plan.pathload_fail) c_pathload.add();
    if (truncate) c_truncate.add();
    if (abort) c_abort.add();
    if (outage) c_outage.add();
    return plan;
}

}  // namespace tcppred::sim
