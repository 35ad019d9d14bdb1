#include "core/predictor_registry.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "core/adaptive_selector.hpp"
#include "core/ar_predictor.hpp"
#include "core/hb_predictors.hpp"

namespace tcppred::core {

namespace {

/// Strict numeric parses: the whole token must be consumed, so "10x-MA" or
/// "0..8-HW" fail instead of silently truncating.
std::size_t parse_count(const std::string& token, const std::string& spec) {
    if (token.empty() || !std::isdigit(static_cast<unsigned char>(token.front()))) {
        throw predictor_spec_error(spec, "expected a count, got '" + token + "'");
    }
    std::size_t pos = 0;
    unsigned long v = 0;
    try {
        v = std::stoul(token, &pos);
    } catch (const std::exception&) {
        throw predictor_spec_error(spec, "expected a count, got '" + token + "'");
    }
    if (pos != token.size()) {
        throw predictor_spec_error(spec, "trailing characters in '" + token + "'");
    }
    return v;
}

double parse_real(const std::string& token, const std::string& spec) {
    if (token.empty()) throw predictor_spec_error(spec, "expected a number");
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(token, &pos);
    } catch (const std::exception&) {
        throw predictor_spec_error(spec, "expected a number, got '" + token + "'");
    }
    if (pos != token.size()) {
        throw predictor_spec_error(spec, "trailing characters in '" + token + "'");
    }
    // std::stod takes "nan" and "inf", and every range check is false for
    // NaN: only a finite number is a parameter.
    if (!std::isfinite(v)) {
        throw predictor_spec_error(spec, "expected a finite number, got '" + token + "'");
    }
    return v;
}

formula_kind parse_formula(const std::string& what, const std::string& spec) {
    if (what.empty() || what == "pftk") return formula_kind::pftk;
    if (what == "pftk-full") return formula_kind::pftk_full;
    if (what == "sqrt") return formula_kind::square_root;
    if (what == "minwa") return formula_kind::min_wa;
    throw predictor_spec_error(spec, "unknown formula '" + what +
                                         "' (expected pftk, pftk-full, sqrt, minwa)");
}

/// "<param>-<kind>[-LSO]" | "NWS" → a one-step series forecaster.
std::unique_ptr<hb_predictor> parse_hb(const std::string& hb_spec,
                                       const std::string& spec,
                                       const predictor_config& cfg) {
    if (hb_spec == "NWS") return adaptive_selector::standard(cfg.lso);

    const bool with_lso = hb_spec.size() > 4 && hb_spec.ends_with("-LSO");
    const std::string base = with_lso ? hb_spec.substr(0, hb_spec.size() - 4) : hb_spec;

    const auto dash = base.rfind('-');
    if (dash == std::string::npos || dash == 0 || dash + 1 == base.size()) {
        throw predictor_spec_error(
            spec, "expected '<param>-<kind>[-LSO]', 'NWS', 'fb[:formula]' or "
                  "'hybrid:<hb-spec>[:<k>]'");
    }
    const std::string param = base.substr(0, dash);
    const std::string kind = base.substr(dash + 1);

    std::unique_ptr<hb_predictor> inner;
    try {
        if (kind == "MA") {
            inner = std::make_unique<moving_average>(parse_count(param, spec));
        } else if (kind == "EWMA") {
            inner = std::make_unique<ewma>(parse_real(param, spec));
        } else if (kind == "HW") {
            inner = std::make_unique<holt_winters>(parse_real(param, spec),
                                                   holt_winters::k_spec_beta);
        } else if (kind == "AR") {
            inner = std::make_unique<ar_predictor>(parse_count(param, spec));
        } else {
            throw predictor_spec_error(
                spec, "unknown predictor kind '" + kind + "' (expected MA, EWMA, HW, AR)");
        }
    } catch (const predictor_spec_error&) {
        throw;
    } catch (const std::exception& e) {
        // Out-of-range parameters (MA order 0, EWMA alpha outside (0,1], ...)
        // are rejected by the predictor constructors; surface them as spec
        // errors so callers handle one exception type.
        throw predictor_spec_error(spec, e.what());
    }
    if (with_lso) return std::make_unique<lso_predictor>(std::move(inner), cfg.lso);
    return inner;
}

}  // namespace

std::unique_ptr<predictor> make_predictor(const std::string& spec,
                                          const predictor_config& cfg) {
    if (spec.empty()) throw predictor_spec_error(spec, "empty spec");

    tcp_flow_params flow;
    flow.max_window = bytes{static_cast<double>(cfg.window_bytes)};

    if (spec == "fb" || spec.starts_with("fb:")) {
        const std::string what = spec == "fb" ? "" : spec.substr(3);
        return std::make_unique<formula_predictor>(parse_formula(what, spec), flow);
    }

    if (spec.starts_with("hybrid:")) {
        std::string rest = spec.substr(7);
        double k = blended_predictor::k_default_fb_weight_samples;
        if (const auto colon = rest.rfind(':'); colon != std::string::npos) {
            k = parse_real(rest.substr(colon + 1), spec);
            rest = rest.substr(0, colon);
        }
        if (k <= 0.0) throw predictor_spec_error(spec, "hybrid k must be positive");
        return std::make_unique<blended_predictor>(parse_hb(rest, spec, cfg), k, flow);
    }

    return std::make_unique<history_predictor>(parse_hb(spec, spec, cfg));
}

}  // namespace tcppred::core
