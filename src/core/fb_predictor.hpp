// The composite formula-based predictor of the paper (Eq. 3): PFTK on the
// a-priori RTT/loss measurements when the path is lossy, min(W/T̂, Â) when
// the a-priori probing saw no loss.
#pragma once

#include "core/fb_formulas.hpp"
#include "core/units.hpp"

namespace tcppred::core {

/// A-priori (or during-flow) path characteristics feeding the predictor.
/// Field types carry the units (core/units.hpp); construct from raw record
/// doubles only at the serialization boundary.
struct path_measurement {
    probability loss_rate{};   ///< p̂ (or p̃): fraction of probes lost
    seconds rtt{};             ///< T̂ (or T̃): mean probe RTT
    bits_per_second avail_bw{};///< Â: available bandwidth estimate
};

/// Which throughput estimate Eq. 3 makes for an epoch.
enum class formula_kind {
    square_root,  ///< Mathis et al. (Eq. 1) on the lossy branch
    pftk,         ///< PFTK approximation (Eq. 2) — the paper's default
    pftk_full,    ///< full/revised PFTK (§4.2.9)
    min_wa,       ///< always min(W/T̂, Â): the lossless branch alone, p̂ ignored
};

/// Which branch of Eq. 3 produced a prediction.
enum class fb_branch {
    model_based,   ///< p̂ > 0: throughput formula on (T̂, p̂)
    avail_bw,      ///< p̂ = 0 and Â < W/T̂: predict Â
    window_bound,  ///< p̂ = 0 and W/T̂ ≤ Â: predict W/T̂ (window-limited)
};

/// A prediction plus which branch made it (the paper analyzes lossy vs
/// lossless predictions separately, e.g. Fig. 2).
struct fb_prediction {
    bits_per_second throughput{};  ///< R̂
    fb_branch branch{fb_branch::model_based};
};

/// Eq. 3 of the paper with `kind` on the lossy branch; min_wa takes the
/// lossless branch whatever p̂ is. `t0` defaults to the paper's estimate
/// max(1 s, 2 T̂) when passed as 0.
[[nodiscard]] fb_prediction fb_predict(const tcp_flow_params& flow,
                                       const path_measurement& m,
                                       formula_kind kind = formula_kind::pftk,
                                       seconds t0 = seconds{0.0});

}  // namespace tcppred::core
