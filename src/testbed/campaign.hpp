// Campaign orchestration: the full paths x traces x epochs measurement
// sweep of §4.1 and the pre-canned campaign sizes. Everything a campaign
// writes, the figure cache included (load_or_run), is a record store
// (testbed/record_store.hpp): the paper's collect-then-analyze split.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "testbed/dataset.hpp"
#include "testbed/load_process.hpp"

namespace tcppred::testbed {

/// Size and seeding of a measurement campaign.
struct campaign_config {
    int paths{35};
    int traces_per_path{2};
    int epochs_per_trace{120};
    std::uint64_t seed{20040501};  ///< May 2004, the paper's first set
    epoch_config epoch{};
    bool second_set{false};  ///< use the campaign-2 catalogue & transfer plan
    /// Worker threads for the epoch sweep. 0 = auto ($REPRO_JOBS if set,
    /// else hardware_concurrency); 1 = serial, bypassing the pool entirely.
    /// The dataset is byte-identical for every value (DESIGN.md §6).
    int jobs{0};
    /// Measurement-fault rates (sim/fault_injector.hpp). Default-disabled:
    /// a fault-free campaign is byte-identical to one run before the fault
    /// layer existed.
    sim::fault_profile faults{};
};

/// Progress callback: (epochs completed, total epochs).
///
/// Invoked once per record the sweep releases (in linear order, see
/// sweep_campaign), so `completed` counts released records — restored ones
/// included — and is strictly increasing at any job count. Invocations are
/// serialized (from worker threads when jobs > 1, never concurrently), so
/// the callback needs no locking. It must not re-enter run_campaign.
using progress_fn = std::function<void(int, int)>;

/// Whole percent of `done` out of `total` epochs (a `total` below 1 counts
/// as 1), for progress lines. In 64 bits: a grid holds up to INT_MAX
/// epochs, and `done * 100` overflows int past 21,474,836.
[[nodiscard]] constexpr int progress_percent(int done, int total) noexcept {
    return static_cast<int>(std::int64_t{done} * 100 / (total > 0 ? total : 1));
}

/// The path catalogue a campaign config generates (campaign-1 or campaign-2
/// per cfg.second_set). Path ids ascend 0..paths-1 in catalogue order — the
/// invariant that makes the linearized epoch order below equal the
/// (path, trace)-sorted order dataset::traces() produces.
[[nodiscard]] std::vector<path_profile> campaign_catalog(const campaign_config& cfg);

/// Epochs in the full grid: paths * traces_per_path * epochs_per_trace.
[[nodiscard]] std::size_t campaign_total_epochs(const campaign_config& cfg);

/// Grid coordinates of a linear epoch index (DESIGN.md §6): the inverse of
/// idx = path_index * (traces_per_path * epochs_per_trace)
///     + trace * epochs_per_trace + epoch.
struct epoch_coords {
    std::size_t path_index{0};  ///< index into campaign_catalog(cfg)
    int trace{0};
    int epoch{0};
};
[[nodiscard]] epoch_coords decompose_epoch_index(const campaign_config& cfg,
                                                 std::size_t idx);

/// Worker count for a campaign sweep: explicit cfg.jobs wins, otherwise
/// $REPRO_JOBS / hardware_concurrency, never more than one per epoch.
[[nodiscard]] unsigned campaign_effective_jobs(const campaign_config& cfg,
                                               std::size_t total_epochs);

/// Simulate one campaign epoch exactly as run_campaign does: per-epoch seed
/// derivation, fault planning, the campaign.epochs_run/faulted counters, the
/// per-epoch latency recorder and the JSONL "epoch" trace event. `load` is
/// the trace's load state for `epoch` (load_trajectory position). A pure
/// function of (cfg, profile, load, trace, epoch): the sweep calls it for
/// every sink, which is what keeps their records bitwise identical.
[[nodiscard]] epoch_record simulate_campaign_epoch(const campaign_config& cfg,
                                                   const path_profile& profile,
                                                   const load_state& load, int trace,
                                                   int epoch);

/// Run a campaign from scratch. Deterministic in cfg alone: the records
/// vector (and hence the CSV) is identical for any cfg.jobs / $REPRO_JOBS,
/// because every epoch is independently seeded via
/// derive_seed(seed, "epoch", path, trace, epoch) and records are released
/// in (path, trace, epoch) order, never completion order.
[[nodiscard]] dataset run_campaign(const campaign_config& cfg, progress_fn progress = nullptr);

/// Checkpointing / cancellation knobs of a campaign run. All default-off: a
/// default-constructed value makes the runners of record_store.hpp sweep
/// the grid exactly as run_campaign does. The journal fields are the
/// journaled runners'; sweep_campaign takes the rest.
struct campaign_run_options {
    /// Resume journal: an unfinished record store (record_store.hpp). Empty =
    /// no journal.
    std::filesystem::path checkpoint{};
    /// Flush the journal after this many newly released records (and
    /// always once more at the end of an interrupted run).
    int checkpoint_every{32};
    /// Restore the journal's records if `checkpoint` exists and simulate
    /// only the rest. The journal must carry this run's header (config
    /// fingerprint and catalogue), and its records must be exactly the first
    /// k claimed indices in linear order; job count may differ freely.
    bool resume{false};
    /// Claim only linear epoch indices for which this returns true (null =
    /// claim everything). Off-claim epochs are neither simulated nor
    /// released — this is how a shard worker runs its slice of the grid
    /// (testbed/shard.hpp); `complete` then means "every claimed epoch done".
    /// A journaled run with a filter keeps its journal when it completes:
    /// a slice's journal is its product, which the shard merge consumes.
    /// Must be pure and thread-safe: it is called from worker threads.
    std::function<bool(std::size_t)> epoch_filter{};
    /// Polled between epochs; return true to stop claiming new epochs. The
    /// in-flight ones finish, and those in linear order are released.
    std::function<bool()> cancelled{};
    /// Test/instrumentation hook, invoked with the linear epoch index just
    /// before that epoch simulates. An exception thrown here (or anywhere in
    /// an epoch) aborts the run, but the records released before the first
    /// hole still reach the sink (and the journal) before the first worker
    /// error is rethrown.
    std::function<void(std::size_t)> epoch_hook{};
    /// Records parked at most between out-of-order workers and the
    /// in-order release; a worker that would overflow it blocks, except the
    /// one holding the next index. Peak parked memory is O(this + jobs).
    std::size_t reorder_capacity{4096};
};

/// What a (possibly interrupted) campaign run produced.
struct campaign_outcome {
    dataset data;             ///< paths, plus the records the sink kept
    bool complete{true};      ///< every *claimed* epoch released (see epoch_filter)
    int epochs_completed{0};  ///< records released, restored ones included
    int epochs_resumed{0};    ///< records restored from the journal
};

/// Receives the sweep's records: once per claimed record, in ascending
/// linear index order, never concurrently.
using record_sink = std::function<void(std::size_t idx, epoch_record&& rec)>;

/// The one campaign sweep (DESIGN.md §6.3); run_campaign and the runners of
/// record_store.hpp only choose `sink` and `opts.epoch_filter`. Workers
/// simulate claimed epochs in parallel; records reach `sink` and `progress`
/// in linear order through the bounded reorder window. Load trajectories
/// are generated lazily and evicted after their last epoch, so the sweep
/// holds nothing grid-sized. A cancel or a worker error stops the release
/// at the first hole: every record below it reaches `sink` before the sweep
/// returns or rethrows, nothing past it does. The returned `data` has the
/// catalogue only. The sweep keeps no journal: opts.checkpoint must be
/// empty, and the grid at most INT_MAX epochs (progress counts in int).
[[nodiscard]] campaign_outcome sweep_campaign(const campaign_config& cfg,
                                              const campaign_run_options& opts,
                                              const record_sink& sink,
                                              progress_fn progress = nullptr);

/// Pre-canned sizes, selectable with REPRO_SCALE=tiny|default|paper.
enum class campaign_scale { tiny, normal, paper };
[[nodiscard]] campaign_scale scale_from_env();
[[nodiscard]] campaign_config campaign1_config(campaign_scale scale);
/// Campaign 2 (§4.1 second set, March 2006): fresh paths, longer transfers
/// with 1/4, 1/2 and full-length goodput checkpoints, no W=20KB companion.
[[nodiscard]] campaign_config campaign2_config(campaign_scale scale);

/// Resolve the shared data directory: $REPRO_DATA_DIR or "data".
[[nodiscard]] std::filesystem::path data_dir();

}  // namespace tcppred::testbed
