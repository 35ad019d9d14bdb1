#include "serve/path_table.hpp"

#include <utility>

#include "analysis/evaluation.hpp"
#include "core/lso.hpp"
#include "obs/counters.hpp"
#include "testbed/dataset.hpp"

namespace tcppred::serve {

path_table::path_table(std::vector<std::string> specs, core::predictor_config cfg,
                       std::size_t shards)
    : specs_(std::move(specs)) {
    protos_.reserve(specs_.size());
    names_.reserve(specs_.size());
    for (std::size_t j = 0; j < specs_.size(); ++j) {
        protos_.push_back(core::make_predictor(specs_[j], cfg));
        names_.push_back(protos_.back()->name());
        spec_index_.emplace(specs_[j], j);
        spec_index_.emplace(names_.back(), j);
    }
    if (shards == 0) shards = 1;
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) shards_.push_back(std::make_unique<shard>());
}

std::size_t path_table::shard_of(std::string_view path) const noexcept {
    // FNV-1a: stable across platforms, so snapshots and tests never depend
    // on std::hash's implementation.
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : path) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h % shards_.size());
}

std::uint64_t path_table::observe(const std::string& path, const observation& ev) {
    static const obs::counter c_observe = obs::counter::get("serve.observations");
    static const obs::counter c_paths = obs::counter::get("serve.paths_created");

    // The observation projected exactly as the engine's default view
    // (analysis::view_of_record): same failed/absent/valid decision, same
    // actual masking — the root of the bitwise-equivalence contract.
    testbed::epoch_record rec;
    rec.epoch_index = static_cast<int>(ev.epoch);
    rec.m.avail_bw_bps = ev.avail_bw_bps;
    rec.m.phat = ev.phat;
    rec.m.phat_events = ev.phat_events;
    rec.m.that_s = ev.that_s;
    rec.m.r_large_bps = ev.r_large_bps;
    rec.m.fault_flags = ev.fault_flags;
    const analysis::record_view rv = analysis::view_of_record(rec);

    shard& sh = *shards_[shard_of(path)];
    const std::lock_guard<std::mutex> lock(sh.mu);
    auto [it, inserted] = sh.paths.try_emplace(path);
    path_state& st = it->second;
    if (inserted) {
        st.preds.reserve(protos_.size());
        // One share per path: the loop below steps the specs in lockstep,
        // so the path's LSO wrappers run one filter (core::lso_share).
        core::lso_share share;
        for (const auto& proto : protos_) st.preds.push_back(proto->clone_into(share));
        st.last.resize(protos_.size());
        c_paths.add();
    }
    for (std::size_t j = 0; j < st.preds.size(); ++j) {
        st.last[j] =
            cached_prediction{analysis::epoch_step(*st.preds[j], rv), ev.epoch};
    }
    st.log.push_back(ev);
    c_observe.add();
    return observations_.fetch_add(1, std::memory_order_relaxed) + 1;
}

predict_reply path_table::predict(const std::string& path,
                                  const std::string& spec) const {
    static const obs::counter c_predict = obs::counter::get("serve.predictions");
    predict_reply reply;
    const auto spec_it = spec_index_.find(spec);
    if (spec_it == spec_index_.end()) {
        reply.st = predict_reply::status::unknown_spec;
        return reply;
    }
    const shard& sh = *shards_[shard_of(path)];
    const std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.paths.find(path);
    if (it == sh.paths.end()) {
        reply.st = predict_reply::status::unknown_path;
        return reply;
    }
    const cached_prediction& cached = it->second.last[spec_it->second];
    if (cached.epoch < 0) {
        reply.st = predict_reply::status::no_observations;
        return reply;
    }
    reply.value = cached.value;
    reply.epoch = cached.epoch;
    c_predict.add();
    return reply;
}

std::size_t path_table::path_count() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) {
        const std::lock_guard<std::mutex> lock(sh->mu);
        n += sh->paths.size();
    }
    return n;
}

void path_table::visit_sorted(
    const std::function<void(const std::string&, const path_state&)>& fn) const {
    // Lock every shard (fixed index order — the only multi-shard lock site,
    // so no ordering conflicts), then walk a merged sorted view.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& sh : shards_) locks.emplace_back(sh->mu);
    std::map<std::string_view, const path_state*> merged;
    for (const auto& sh : shards_) {
        for (const auto& [name, st] : sh->paths) merged.emplace(name, &st);
    }
    for (const auto& [name, st] : merged) fn(std::string(name), *st);
}

}  // namespace tcppred::serve
