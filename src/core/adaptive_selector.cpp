#include "core/adaptive_selector.hpp"

#include <cmath>
#include <stdexcept>

#include "core/lso.hpp"
#include "core/metrics.hpp"

namespace tcppred::core {

adaptive_selector::adaptive_selector(std::vector<std::unique_ptr<hb_predictor>> candidates) {
    if (candidates.empty()) {
        throw std::invalid_argument("adaptive_selector: need at least one candidate");
    }
    for (auto& c : candidates) {
        if (!c) throw std::invalid_argument("adaptive_selector: null candidate");
        candidates_.push_back(entry{std::move(c), 0.0, 0.0});
    }
}

void adaptive_selector::observe(double x) {
    for (auto& c : candidates_) {
        const double forecast = c.predictor->predict();
        if (!std::isnan(forecast) && x > 0.0) {
            const double e = relative_error(forecast, x);
            c.score = c.score * k_nws_score_discount + e * e;
            c.weight = c.weight * k_nws_score_discount + 1.0;
        }
        c.predictor->observe(x);
    }
    ++seen_;
}

std::size_t adaptive_selector::best_index() const {
    std::size_t best = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        const auto& c = candidates_[i];
        // Unscored candidates rank behind any scored one.
        const double mean = c.weight > 0.0 ? c.score / c.weight
                                           : std::numeric_limits<double>::infinity();
        if (mean < best_score) {
            best_score = mean;
            best = i;
        }
    }
    return best;
}

std::string adaptive_selector::best_name() const {
    return candidates_[best_index()].predictor->name();
}

double adaptive_selector::predict() const {
    return candidates_[best_index()].predictor->predict();
}

void adaptive_selector::reset() {
    for (auto& c : candidates_) {
        c.predictor->reset();
        c.score = 0.0;
        c.weight = 0.0;
    }
    seen_ = 0;
}

std::unique_ptr<hb_predictor> adaptive_selector::clone_into(lso_share& share) const {
    std::vector<std::unique_ptr<hb_predictor>> clones;
    clones.reserve(candidates_.size());
    for (const auto& c : candidates_) clones.push_back(c.predictor->clone_into(share));
    return std::make_unique<adaptive_selector>(std::move(clones));
}

std::string adaptive_selector::name() const {
    return "NWS-" + std::to_string(candidates_.size());
}

std::unique_ptr<adaptive_selector> adaptive_selector::standard(lso_config lso) {
    const auto filter = std::make_shared<lso_filter>(lso);  // one filter for all four
    std::vector<std::unique_ptr<hb_predictor>> set;
    set.push_back(std::make_unique<lso_predictor>(std::make_unique<moving_average>(5), filter));
    set.push_back(std::make_unique<lso_predictor>(std::make_unique<moving_average>(10), filter));
    set.push_back(std::make_unique<lso_predictor>(std::make_unique<ewma>(0.5), filter));
    set.push_back(std::make_unique<lso_predictor>(
        std::make_unique<holt_winters>(0.8, holt_winters::k_spec_beta), filter));
    return std::make_unique<adaptive_selector>(std::move(set));
}

}  // namespace tcppred::core
