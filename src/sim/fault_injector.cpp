#include "sim/fault_injector.hpp"

#include "sim/rate_spec.hpp"
#include "sim/rng.hpp"

namespace tcppred::sim {

namespace {

/// The spec's rate keys, in rendering order.
constexpr rate_key<fault_profile> k_keys[] = {
    {"pathload", &fault_profile::pathload_fail},
    {"ping-timeout", &fault_profile::ping_timeout_rate},
    {"ping-truncate", &fault_profile::ping_truncate},
    {"abort", &fault_profile::transfer_abort},
    {"outage", &fault_profile::outage},
};

}  // namespace

std::string fault_profile::spec() const { return render_rate_spec(*this, k_keys); }

fault_profile fault_profile::parse(std::string_view spec) {
    return parse_rate_spec("fault_profile", spec, k_keys);
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
    return plan;
}

}  // namespace tcppred::sim
