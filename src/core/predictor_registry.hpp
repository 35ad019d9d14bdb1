// The predictor registry: every predictor in the repository — FB, the HB
// family, AR, the NWS-style selector, hybrids — is constructed from a spec
// string through core::make_predictor, so benches, tools, examples, and any
// future serving front-end share one naming scheme and one wiring point.
//
// Spec grammar (README "Predictor specs" has the full table):
//
//   fb | fb:pftk | fb:pftk-full | fb:sqrt | fb:minwa
//       formula-based (Eq. 3) with the chosen lossy-branch model; "fb" is
//       shorthand for "fb:pftk" (the paper's default). "fb:minwa" ignores
//       the loss estimate and always predicts min(W/T̂, Â).
//   <n>-MA | <a>-EWMA | <a>-HW | <p>-AR        history-based (§5.1)
//       e.g. "10-MA", "0.8-EWMA", "0.8-HW", "4-AR". Append "-LSO" to wrap
//       with the level-shift/outlier heuristics (§5.2): "10-MA-LSO".
//   NWS
//       adaptive selection racing the standard candidate set.
//   hybrid:<hb-spec> | hybrid:<hb-spec>:<k>
//       FB+HB blend (§7): e.g. "hybrid:0.8-HW-LSO", "hybrid:10-MA:5".
//       k = history length at which HB and FB weigh equally (default 3);
//       the canonical name carries a k other than 3.
//
// Malformed or unknown specs throw predictor_spec_error, which carries the
// offending spec (tools map it to exit code 2).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/lso.hpp"
#include "core/predictor.hpp"

namespace tcppred::core {

/// Thrown by make_predictor on an unknown or malformed spec.
class predictor_spec_error : public std::invalid_argument {
public:
    predictor_spec_error(std::string spec, const std::string& reason)
        : std::invalid_argument("bad predictor spec '" + spec + "': " + reason),
          spec_(std::move(spec)) {}

    /// The spec string that failed to parse.
    [[nodiscard]] const std::string& spec() const noexcept { return spec_; }

private:
    std::string spec_;
};

/// Shared parameters a spec string does not encode: the sender window W and
/// the LSO tuning. One config serves every spec in an evaluation, so
/// "fb:pftk" and "10-MA-LSO" are compared under the same assumptions. The
/// rest are constants: the flow's M and b (k_mss_bytes, k_segs_per_ack in
/// fb_formulas.hpp), the FB staleness bound
/// (formula_predictor::k_max_staleness), HW's trend gain
/// (holt_winters::k_spec_beta) and the hybrid's default k
/// (blended_predictor::k_default_fb_weight_samples).
struct predictor_config {
    /// Sender window W for Eq. 3's W/T̂ bound: the target transfer's.
    std::uint64_t window_bytes{k_target_window_bytes};
    lso_config lso{};  ///< parameters for "-LSO"-wrapped specs
};

/// Build a predictor from its spec string (grammar above). Throws
/// predictor_spec_error on unknown or malformed specs.
[[nodiscard]] std::unique_ptr<predictor> make_predictor(
    const std::string& spec, const predictor_config& cfg = {});

/// The items of a comma-separated spec list, the one syntax of every tool
/// flag that takes specs: none for an empty list, and an empty item kept as
/// the empty spec, which make_predictor refuses like any bad spec.
[[nodiscard]] std::vector<std::string> split_spec_list(std::string_view list);

}  // namespace tcppred::core
