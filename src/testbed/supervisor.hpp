// Multi-process campaign supervisor (DESIGN.md §15).
//
// Forks one tcppred_campaign worker per shard, watches their heartbeat
// files, and keeps the campaign converging through worker crashes and
// hangs: a dead worker's shard is relaunched (on whichever seat is free)
// with capped exponential backoff, a silent worker is SIGKILLed once its
// heartbeat goes stale, and SIGINT fans out to every worker so each one
// checkpoints its shard before the supervisor reports "interrupted".
// When every shard completes, the per-shard journals are merged
// (testbed/shard.hpp) into the output — byte-identical to a serial run of
// the same config.
//
// Worker failures are classified by wait status: exit 0 = shard complete;
// exit 1 (bad arguments) or 127 (exec failed) = a config error retrying
// cannot heal, so the whole campaign aborts; any other exit or death by
// signal = crash, retried up to max_attempts per shard.
#pragma once

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "testbed/campaign.hpp"

namespace tcppred::testbed {

/// Knobs for one supervised campaign run.
struct supervisor_options {
    /// Campaign the workers are running; used to fingerprint-check and merge
    /// the shard checkpoints. Must match the config flags in worker_argv.
    campaign_config cfg{};
    /// Final output path. Shard journal/heartbeat/log names derive from it.
    std::filesystem::path out{};
    /// Worker process count == shard count.
    int workers{2};
    /// Worker command line: program then config flags (--out, --paths, ...).
    /// The supervisor appends --shard i/N, --jobs, --resume itself.
    std::vector<std::string> worker_argv{};
    /// Threads per worker process (the --jobs each worker runs with).
    int worker_jobs{1};
    /// A worker whose heartbeat file stays unchanged this long is declared
    /// hung and SIGKILLed (then retried like a crash). Also the grace period
    /// between the SIGINT fan-out and SIGKILLing stragglers.
    double hang_timeout_s{30.0};
    /// Launch attempts per shard before the campaign is declared failed.
    int max_attempts{50};
    /// Relaunch backoff: base * 2^(attempt-1), capped. Keeps a crash-looping
    /// shard from spinning while staying far below test timescales.
    double backoff_base_s{0.02};
    double backoff_cap_s{0.5};
    /// Supervisor poll period (reap, heartbeat scan, launch).
    double poll_interval_s{0.05};
    /// Polled each cycle; true = fan SIGINT out to the workers, wait for
    /// them to checkpoint and exit, and return interrupted.
    std::function<bool()> cancelled{};
    /// The final merge step (required): (cfg, shard journal paths, out) ->
    /// merged record count, writing `out` in whatever format the caller
    /// wants. This inversion is how the store layer (record_store.hpp)
    /// plugs its merge in without testbed depending on it.
    std::function<std::size_t(const campaign_config&,
                              const std::vector<std::filesystem::path>&,
                              const std::filesystem::path&)>
        merge{};
};

/// What a supervised run did.
struct supervisor_result {
    bool complete{false};     ///< all shards done, output merged and written
    bool interrupted{false};  ///< cancelled(); shard checkpoints are resumable
    std::string error;        ///< set when neither complete nor interrupted
    int workers_spawned{0};   ///< total worker launches (first runs + retries)
    int worker_restarts{0};   ///< launches beyond each shard's first
    int hangs_killed{0};      ///< workers SIGKILLed for a stale heartbeat
    std::size_t epochs_merged{0};  ///< records in the merged dataset
};

/// Run the campaign under supervision. Blocks until the campaign completes,
/// fails, or is cancelled. Never throws for worker failures (they land in
/// result.error); merge/IO failures are reported the same way.
[[nodiscard]] supervisor_result run_supervisor(const supervisor_options& opts);

}  // namespace tcppred::testbed
