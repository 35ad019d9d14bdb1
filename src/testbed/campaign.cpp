#include "testbed/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "sim/fault_injector.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "testbed/load_process.hpp"

namespace tcppred::testbed {

std::vector<path_profile> campaign_catalog(const campaign_config& cfg) {
    return cfg.second_set ? second_campaign_catalog(cfg.paths, cfg.seed)
                          : ron_like_catalog(cfg.paths, cfg.seed);
}

std::size_t campaign_total_epochs(const campaign_config& cfg) {
    return static_cast<std::size_t>(cfg.paths) *
           static_cast<std::size_t>(cfg.traces_per_path) *
           static_cast<std::size_t>(cfg.epochs_per_trace);
}

epoch_coords decompose_epoch_index(const campaign_config& cfg, std::size_t idx) {
    const int per_path = cfg.traces_per_path * cfg.epochs_per_trace;
    epoch_coords c;
    c.path_index = idx / static_cast<std::size_t>(per_path);
    const int rem = static_cast<int>(idx % static_cast<std::size_t>(per_path));
    c.trace = rem / cfg.epochs_per_trace;
    c.epoch = rem % cfg.epochs_per_trace;
    return c;
}

unsigned campaign_effective_jobs(const campaign_config& cfg, std::size_t total_epochs) {
    const unsigned requested =
        cfg.jobs > 0 ? static_cast<unsigned>(cfg.jobs) : sim::jobs_from_env();
    const std::size_t cap_epochs = total_epochs > 0 ? total_epochs : 1;
    const unsigned cap = static_cast<unsigned>(std::min<std::size_t>(
        cap_epochs, std::numeric_limits<unsigned>::max()));
    return std::min(requested, cap);
}

epoch_record simulate_campaign_epoch(const campaign_config& cfg,
                                     const path_profile& profile,
                                     const load_state& load, int trace, int epoch) {
    static const obs::counter c_epochs = obs::counter::get("campaign.epochs_run");
    static const obs::counter c_faulted = obs::counter::get("campaign.epochs_faulted");
    const std::uint64_t epoch_seed = sim::derive_seed(
        cfg.seed, "epoch", static_cast<std::uint64_t>(profile.id),
        static_cast<std::uint64_t>(trace), static_cast<std::uint64_t>(epoch));
    sim::epoch_fault_plan faults;
    if (cfg.faults.enabled()) {
        faults = sim::plan_epoch_faults(cfg.faults, cfg.seed, profile.id, trace, epoch);
    }
    epoch_record rec;
    rec.path_id = profile.id;
    rec.trace_id = trace;
    rec.epoch_index = epoch;
    const obs::stopwatch epoch_watch;  // read only when tracing
    rec.m = run_epoch(profile, load, epoch_seed, cfg.epoch, faults);
    c_epochs.add();
    // A plan only draws the faults; the record's flags say which happened.
    if (rec.m.fault_flags != fault_none) c_faulted.add();
    if (obs::trace_enabled()) {
        const double dur_s = epoch_watch.elapsed_s();
        char seed_hex[20];
        std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                      static_cast<unsigned long long>(epoch_seed));
        obs::trace_emit(
            obs::json_line{}
                .str("ev", "epoch")
                .num("path", static_cast<std::int64_t>(profile.id))
                .num("trace", static_cast<std::int64_t>(trace))
                .num("epoch", static_cast<std::int64_t>(epoch))
                .str("seed", seed_hex)
                .num("fault_flags", static_cast<std::uint64_t>(rec.m.fault_flags))
                .num("sim_events", rec.m.events)
                .num("dur_s", dur_s)
                .num("thread", static_cast<std::uint64_t>(std::hash<std::thread::id>{}(
                                   std::this_thread::get_id())))
                .done());
    }
    return rec;
}

namespace {

/// Emit the JSONL "campaign_start" event (no-op when tracing is off).
void trace_campaign_start(const campaign_config& cfg) {
    if (!obs::trace_enabled()) return;
    obs::trace_emit(obs::json_line{}
                        .str("ev", "campaign_start")
                        .num("paths", static_cast<std::int64_t>(cfg.paths))
                        .num("traces", static_cast<std::int64_t>(cfg.traces_per_path))
                        .num("epochs", static_cast<std::int64_t>(cfg.epochs_per_trace))
                        .num("seed", static_cast<std::uint64_t>(cfg.seed))
                        .str("faults", cfg.faults.spec())
                        .num("second_set",
                             static_cast<std::int64_t>(cfg.second_set ? 1 : 0))
                        .done());
}

}  // namespace

dataset run_campaign(const campaign_config& cfg, progress_fn progress) {
    std::vector<epoch_record> records(campaign_total_epochs(cfg));
    campaign_outcome out = sweep_campaign(
        cfg, {},
        [&](std::size_t idx, epoch_record&& rec) { records[idx] = std::move(rec); },
        std::move(progress));
    out.data.records = std::move(records);
    return std::move(out.data);
}

campaign_outcome sweep_campaign(const campaign_config& cfg,
                                const campaign_run_options& opts, const record_sink& sink,
                                progress_fn progress) {
    TCPPRED_EXPECTS(cfg.paths > 0 && cfg.traces_per_path > 0 &&
                    cfg.epochs_per_trace > 0);
    TCPPRED_EXPECTS(cfg.jobs >= 0);
    TCPPRED_EXPECTS(opts.checkpoint.empty() && opts.reorder_capacity >= 1);
    const std::size_t total = campaign_total_epochs(cfg);
    TCPPRED_EXPECTS(total <= static_cast<std::size_t>(std::numeric_limits<int>::max()));
    // Observability: the JSONL run trace (per-epoch events and counters are
    // emitted inside simulate_campaign_epoch).
    trace_campaign_start(cfg);
    campaign_outcome out;
    out.data.paths = campaign_catalog(cfg);
    const std::vector<path_profile>& paths = out.data.paths;
    const auto per_trace = static_cast<std::size_t>(cfg.epochs_per_trace);

    const auto claimed = [&](std::size_t idx) {
        return !opts.epoch_filter || opts.epoch_filter(idx);
    };
    const auto next_claimed = [&](std::size_t idx) {
        while (idx < total && !claimed(idx)) ++idx;
        return idx;
    };
    // The next linear index to release; every claimed index below it has
    // reached the sink, nothing above it has.
    std::size_t next_release = next_claimed(0);

    // Per-trace load trajectories, generated on first use and evicted once
    // every epoch this run simulates from them has taken its load state.
    // parallel_for claims indices in ascending (trace-major) order, so about
    // jobs + 1 trajectories are live at a time.
    struct trace_loads {
        std::vector<load_state> loads;
        std::size_t remaining{0};
    };
    std::map<std::size_t, trace_loads> trajectories;
    std::mutex trajectories_mu;
    const auto load_of = [&](std::size_t idx, const epoch_coords& c) {
        const std::size_t key = idx / per_trace;
        const std::lock_guard<std::mutex> lock(trajectories_mu);
        auto it = trajectories.find(key);
        if (it == trajectories.end()) {
            const obs::stage_timer t_loads("campaign.load_trajectories");
            trace_loads entry;
            const path_profile& profile = paths[c.path_index];
            entry.loads = load_trajectory(
                profile,
                sim::derive_seed(cfg.seed, "trace", static_cast<std::uint64_t>(profile.id),
                                 static_cast<std::uint64_t>(c.trace)),
                cfg.epochs_per_trace);
            for (std::size_t i = key * per_trace; i < (key + 1) * per_trace; ++i) {
                if (claimed(i)) ++entry.remaining;
            }
            it = trajectories.emplace(key, std::move(entry)).first;
        }
        const load_state load = it->second.loads[static_cast<std::size_t>(c.epoch)];
        if (--it->second.remaining == 0) trajectories.erase(it);
        return load;
    };

    // The reorder window and the in-order release, all under window_mu: the
    // sink and the progress callback see records one at a time in linear
    // order. `stop` (a cancel or a worker error) ends claiming and wakes
    // every worker parked at a full window — the hole it leaves in the order
    // would otherwise park them forever.
    std::mutex window_mu;
    std::condition_variable window_cv;
    std::map<std::size_t, epoch_record> window;
    std::atomic<bool> stop{false};
    const int total_i = static_cast<int>(total);

    const auto release = [&](std::size_t idx, epoch_record&& rec) {  // holds window_mu
        sink(idx, std::move(rec));
        ++out.epochs_completed;
        if (progress) progress(out.epochs_completed, total_i);
        next_release = next_claimed(idx + 1);
    };
    const auto halt = [&] {
        {
            const std::lock_guard<std::mutex> lock(window_mu);
            stop.store(true, std::memory_order_relaxed);
        }
        window_cv.notify_all();
    };

    const auto run_one = [&](std::size_t idx) {
        if (!claimed(idx)) return;
        if (stop.load(std::memory_order_relaxed)) return;
        try {
            if (opts.cancelled && opts.cancelled()) {
                halt();
                return;
            }
            if (opts.epoch_hook) opts.epoch_hook(idx);
            const epoch_coords c = decompose_epoch_index(cfg, idx);
            epoch_record rec = simulate_campaign_epoch(cfg, paths[c.path_index],
                                                       load_of(idx, c), c.trace, c.epoch);
            std::unique_lock<std::mutex> lock(window_mu);
            window_cv.wait(lock, [&] {
                return idx == next_release || window.size() < opts.reorder_capacity ||
                       stop.load(std::memory_order_relaxed);
            });
            if (idx != next_release) {
                window.emplace(idx, std::move(rec));
                return;
            }
            release(idx, std::move(rec));
            while (!window.empty() && window.begin()->first == next_release) {
                auto node = window.extract(window.begin());
                release(node.key(), std::move(node.mapped()));
            }
            lock.unlock();
            window_cv.notify_all();
        } catch (...) {
            halt();
            throw;
        }
    };

    {
        // A worker error propagates from here, once: parallel_for drains the
        // pool and rethrows the first error, after the release stopped at
        // the first hole.
        const obs::stage_timer t_sweep("campaign.sweep");
        sim::parallel_for(total, campaign_effective_jobs(cfg, total), run_one);
    }
    out.complete = next_release == total;
    return out;
}

campaign_scale scale_from_env() {
    const char* env = std::getenv("REPRO_SCALE");  // NOLINT(concurrency-mt-unsafe)
    if (!env) return campaign_scale::normal;
    const std::string s(env);
    if (s == "tiny") return campaign_scale::tiny;
    if (s == "paper") return campaign_scale::paper;
    return campaign_scale::normal;
}

campaign_config campaign1_config(campaign_scale scale) {
    campaign_config cfg;
    switch (scale) {
        case campaign_scale::tiny:
            cfg.paths = 8;
            cfg.traces_per_path = 1;
            cfg.epochs_per_trace = 45;
            break;
        case campaign_scale::normal:
            cfg.paths = 35;
            cfg.traces_per_path = 2;
            cfg.epochs_per_trace = 120;
            break;
        case campaign_scale::paper:
            cfg.paths = 35;
            cfg.traces_per_path = 7;
            cfg.epochs_per_trace = 150;
            break;
    }
    return cfg;
}

campaign_config campaign2_config(campaign_scale scale) {
    campaign_config cfg;
    cfg.second_set = true;
    cfg.seed = 20060301;  // March 2006, the paper's second set
    // Longer target transfers with goodput checkpoints at 1/4, 1/2 and the
    // full length (the paper's 30/60/120 s of a 120 s transfer).
    cfg.epoch.transfer = core::seconds{24.0};
    cfg.epoch.prefix_s = {6.0, 12.0, 24.0};
    cfg.epoch.run_small_window = false;
    switch (scale) {
        case campaign_scale::tiny:
            cfg.paths = 4;
            cfg.traces_per_path = 1;
            cfg.epochs_per_trace = 15;
            break;
        case campaign_scale::normal:
            cfg.paths = 24;
            cfg.traces_per_path = 1;
            cfg.epochs_per_trace = 60;
            break;
        case campaign_scale::paper:
            cfg.paths = 24;
            cfg.traces_per_path = 3;
            cfg.epochs_per_trace = 120;
            break;
    }
    return cfg;
}

std::filesystem::path data_dir() {
    if (const char* env = std::getenv("REPRO_DATA_DIR")) return env;  // NOLINT(concurrency-mt-unsafe)
    return "data";
}

}  // namespace tcppred::testbed
