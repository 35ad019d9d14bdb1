// Per-path predictor state for the serve daemon: a sharded, mutex-striped
// table mapping path keys to a set of live predictors (one per configured
// spec), their latest cached forecasts, and the replay log snapshots are
// built from (snapshot.hpp).
//
// Equivalence contract (DESIGN.md §17): applying an OBSERVE runs the exact
// per-epoch pipeline of the offline engine — analysis::view_of_record for
// the input projection, then the engine's own analysis::epoch_step
// (predict() before observe_maybe()) on every predictor — so a replayed
// observation stream yields forecasts bitwise identical to
// analysis::evaluation_engine over the same records. predict()
// is only ever called from the observe path (one call per epoch; the FB
// staleness fallback ages on every call) — PREDICT requests return the
// cached forecast and never touch predictor state.
//
// Concurrency: paths are striped over N shards by FNV-1a hash, one mutex
// per shard; operations on different shards run concurrently, operations on
// one path serialize. Per-path state depends only on that path's
// observation order, so any interleaving of disjoint paths reaches the same
// state (the concurrent determinism test pins this). Shard maps are
// std::map: deterministic iteration, per the det-unordered-iter lint rule.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "core/predictor_registry.hpp"
#include "serve/protocol.hpp"

namespace tcppred::serve {

/// The forecast a predictor produced at a path's latest observed epoch.
struct cached_prediction {
    core::prediction value{};
    std::int64_t epoch{-1};  ///< epoch of the observation; -1 = none yet
};

/// One path's live state. Vectors are indexed by spec position.
struct path_state {
    std::vector<std::unique_ptr<core::predictor>> preds;
    std::vector<cached_prediction> last;
    std::vector<observation> log;  ///< replay log, observation order
};

/// Outcome of a PREDICT lookup.
struct predict_reply {
    enum class status { ok, unknown_path, unknown_spec, no_observations };
    status st{status::ok};
    core::prediction value{};
    std::int64_t epoch{-1};
};

class path_table {
public:
    /// Builds one prototype per spec up front (throws
    /// core::predictor_spec_error on a bad spec before any request is
    /// served). `shards` has a floor of 1.
    path_table(std::vector<std::string> specs, core::predictor_config cfg = {},
               std::size_t shards = 8);

    /// Apply one observation to `path` (creating it on first sight):
    /// project, predict every spec, cache, observe, append to the log.
    /// Returns the table-wide observation count after this one.
    std::uint64_t observe(const std::string& path, const observation& obs);

    /// The cached forecast `spec` made at `path`'s latest epoch. `spec`
    /// matches either the configured spec string or its canonical
    /// predictor::name() form.
    [[nodiscard]] predict_reply predict(const std::string& path,
                                        const std::string& spec) const;

    [[nodiscard]] std::uint64_t observations() const noexcept {
        return observations_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t path_count() const;

    [[nodiscard]] const std::vector<std::string>& specs() const noexcept {
        return specs_;
    }
    /// Canonical names (predictor::name()), spec order.
    [[nodiscard]] const std::vector<std::string>& spec_names() const noexcept {
        return names_;
    }

    /// Visit every path in ascending name order — shard-count independent —
    /// holding all shard locks for the duration (snapshot rendering).
    /// `count` first receives the number of paths `fn` is then called for,
    /// under the same locks. Extra memory is one cursor per shard.
    void visit_sorted(
        const std::function<void(std::size_t)>& count,
        const std::function<void(const std::string&, const path_state&)>& fn) const;

private:
    struct shard {
        mutable std::mutex mu;
        std::map<std::string, path_state> paths;
    };

    [[nodiscard]] std::size_t shard_of(std::string_view path) const noexcept;

    std::vector<std::string> specs_;
    std::vector<std::string> names_;
    std::map<std::string, std::size_t> spec_index_;  ///< spec AND name -> index
    std::vector<std::unique_ptr<core::predictor>> protos_;
    std::vector<std::unique_ptr<shard>> shards_;
    std::atomic<std::uint64_t> observations_{0};
};

}  // namespace tcppred::serve
