// Seeded process-level chaos for campaign runs.
//
// The fault injector (sim/fault_injector.hpp) breaks *measurements*; this
// layer breaks *processes*. Under a chaos profile a campaign process
// SIGKILLs itself just before running a planned epoch, so crash recovery
// (the journal plus --resume, DESIGN.md §15.3) is exercised by tests
// instead of trusted on faith (DESIGN.md §15.4).
//
// Same discipline as measurement faults: every decision is drawn up front
// from a dedicated derive_seed stream, so a chaos run is a pure function of
// (profile, campaign seed, attempt, epoch index). The attempt number of the
// rerun participates in the stream on purpose — a kill planned at epoch e
// must not be re-planned at e forever, or no amount of rerunning would ever
// finish the campaign. Each attempt re-rolls the surviving epochs, so
// progress plus per-epoch checkpointing converges with probability 1 while
// the full kill schedule stays exactly replayable.
//
// Layering: pure decision logic on sim/rng.hpp; knows nothing about
// processes or the testbed. tools/tcppred_campaign applies the plan.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tcppred::sim {

/// Per-epoch chaos rate for a campaign process. Default-off: a disabled
/// profile makes a run behave exactly as if this layer did not exist.
struct chaos_profile {
    double kill_rate{0.0};  ///< P[process SIGKILLs itself before an epoch]
    /// Chaos-stream seed. 0 (the default) derives the stream from the
    /// campaign seed, so `--seed` alone pins the whole chaos schedule.
    std::uint64_t seed{0};

    [[nodiscard]] bool enabled() const noexcept { return kill_rate > 0.0; }

    /// Canonical spec string ("off" when disabled).
    [[nodiscard]] std::string spec() const;

    /// Parse a spec (sim/rate_spec.hpp), e.g. "kill=0.05,seed=9". Unknown
    /// keys or a rate outside [0,1] throw std::invalid_argument.
    [[nodiscard]] static chaos_profile parse(std::string_view spec);

    /// Profile from $REPRO_CHAOS (unset or empty -> disabled).
    [[nodiscard]] static chaos_profile from_env();
};

/// Whether the process SIGKILLs itself immediately before linear epoch
/// `idx` on attempt `attempt` (0 = first run). Deterministic in (profile,
/// campaign_seed, attempt, idx) alone: one draw per epoch, kill on [0, kill).
[[nodiscard]] bool plan_chaos_kill(const chaos_profile& profile,
                                   std::uint64_t campaign_seed, int attempt,
                                   std::size_t idx);

/// The attempt number whatever reruns the campaign hands to the process via
/// $REPRO_CHAOS_ATTEMPT (absent -> 0; anything but a whole number in
/// [0, 2^30] throws core::parse_error).
[[nodiscard]] int chaos_attempt_from_env();

}  // namespace tcppred::sim
