// Deterministic measurement-fault model for the simulated testbed.
//
// The paper's RON deployment was lossy in practice: pathload sometimes
// failed to converge, ping probes timed out, bulk transfers aborted, and
// paths suffered transient outages. The seed campaign assumed every
// measurement succeeds; this layer reintroduces those failure modes as a
// *deterministic, seeded* process so faulty campaigns replay byte-identically
// (same contract as the rest of the simulator, DESIGN.md §6/§10).
//
// Layering: this file is pure decision logic (rates in, per-epoch plan out)
// on top of sim/rng.hpp. It knows nothing about probes or the testbed: the
// epoch runner (testbed/epoch_runner.cpp) turns each epoch's plan into the
// probes' fault arguments and the record's fault flags.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tcppred::sim {

/// Per-path fault rates for a campaign. All rates are probabilities per
/// epoch (per probe for ping_timeout_rate). Everything defaults to 0, i.e. the
/// fault layer is off and campaigns behave exactly as before it existed.
struct fault_profile {
    double pathload_fail{0.0};    ///< P[pathload fails to converge this epoch]
    double ping_timeout_rate{0.0};///< P[an individual probe gets no echo]
    double ping_truncate{0.0};    ///< P[the a-priori ping session ends early]
    double transfer_abort{0.0};   ///< P[the target transfer aborts mid-flight]
    double outage{0.0};           ///< P[a transient path blackout during the transfer]
    /// Fault-stream seed. 0 (the default) derives the stream from the
    /// campaign seed, so `--seed` alone still pins the whole run; a nonzero
    /// value decouples fault placement from the measurement seed.
    std::uint64_t seed{0};

    [[nodiscard]] bool enabled() const noexcept {
        return pathload_fail > 0.0 || ping_timeout_rate > 0.0 || ping_truncate > 0.0 ||
               transfer_abort > 0.0 || outage > 0.0;
    }

    /// Canonical spec string ("off" when disabled). Feeds the checkpoint
    /// fingerprint: resuming under a different fault profile must be refused.
    [[nodiscard]] std::string spec() const;

    /// Parse a `--faults` spec (sim/rate_spec.hpp), e.g.
    ///   "pathload=0.1,ping-timeout=0.02,ping-truncate=0.05,abort=0.1,outage=0.05,seed=7"
    /// Unknown keys or rates outside [0,1] throw std::invalid_argument.
    [[nodiscard]] static fault_profile parse(std::string_view spec);
};

/// The faults one specific epoch will experience, fully resolved: every
/// stochastic decision is drawn up front in plan_epoch_faults(), so the
/// epoch simulation itself consumes no draws from the fault stream and the
/// measurement RNG streams are untouched (faults change *what happens*, not
/// how unrelated randomness is advanced).
struct epoch_fault_plan {
    bool pathload_fail{false};
    double ping_timeout_rate{0.0};       ///< injected per-probe no-echo probability
    std::uint64_t ping_fault_seed{0};    ///< stream for the per-probe draws
    double ping_truncate_fraction{1.0};  ///< < 1: stop the a-priori session early
    double transfer_abort_fraction{1.0}; ///< < 1: abort the target transfer early
    bool outage{false};
    double outage_start_fraction{0.0};   ///< of the transfer duration
    double outage_duration_fraction{0.0};///< of the transfer duration

    [[nodiscard]] bool any() const noexcept {
        return pathload_fail || ping_timeout_rate > 0.0 ||
               ping_truncate_fraction < 1.0 || transfer_abort_fraction < 1.0 || outage;
    }
};

/// Resolve the fault plan of epoch (path_id, trace, epoch). Deterministic in
/// (profile, campaign_seed, coordinates) alone; the draw sequence is fixed,
/// so enabling one fault type never re-randomizes another.
[[nodiscard]] epoch_fault_plan plan_epoch_faults(const fault_profile& profile,
                                                 std::uint64_t campaign_seed,
                                                 int path_id, int trace, int epoch);

}  // namespace tcppred::sim
