// Sharding a campaign across worker processes (DESIGN.md §15).
//
// A shard is a deterministic slice of the linearized (path, trace, epoch)
// grid. Each worker process runs exactly one shard via the campaign sweep's
// epoch_filter, persists it into its own journal (an unfinished record
// store keyed by the same v2 config fingerprint, record_store.hpp), and
// advertises liveness through a tiny heartbeat file. This file holds the
// shard arithmetic, the per-shard file names and the heartbeats; the merge
// (merge_shard_journals, record_store.hpp) walks the shard journals back
// into one linear record stream whose bytes equal a serial run's — epochs
// are independently seeded, every journal is sorted, and doubles round-trip
// through hexfloat, so *which process* ran an epoch can never show in the
// output.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "testbed/campaign.hpp"

namespace tcppred::testbed {

/// Shard i of N (0 <= index < count).
struct shard_ref {
    int index{0};
    int count{1};
};

/// Parse "i/N" (e.g. "2/4"). Returns nullopt unless 0 <= i < N and N >= 1.
[[nodiscard]] std::optional<shard_ref> parse_shard(std::string_view spec);

/// Deterministic owner of linear epoch index `idx`: round-robin striding.
/// Strided (not block) assignment so every shard samples the whole
/// (path, trace) range — per-path simulation cost varies, and striding
/// balances it without knowing it.
[[nodiscard]] constexpr int shard_of(std::size_t idx, int shard_count) noexcept {
    return static_cast<int>(idx % static_cast<std::size_t>(shard_count));
}

/// Epoch filter claiming exactly `ref`'s slice, for campaign_run_options.
[[nodiscard]] std::function<bool(std::size_t)> shard_filter(shard_ref ref);

/// Number of epochs `ref` owns out of `total`.
[[nodiscard]] std::size_t shard_size(std::size_t total, shard_ref ref);

/// Per-shard file names, all derived from the output CSV path:
/// `<out>.shard-<i>-of-<N>.{ckpt,hb,log}`.
[[nodiscard]] std::filesystem::path shard_checkpoint_path(
    const std::filesystem::path& out, shard_ref ref);
[[nodiscard]] std::filesystem::path shard_heartbeat_path(
    const std::filesystem::path& out, shard_ref ref);
[[nodiscard]] std::filesystem::path shard_log_path(const std::filesystem::path& out,
                                                   shard_ref ref);

/// A worker's liveness beacon. The *contract* is change, not content: `seq`
/// strictly increases with every write, and the supervisor declares a
/// worker hung when the file stops changing for longer than the hang
/// timeout. Written atomically (atomic_write_text) so the supervisor never
/// reads a torn beacon.
struct shard_heartbeat {
    long long pid{0};        ///< worker process id
    std::uint64_t seq{0};    ///< strictly increasing write counter
    int epochs_done{0};      ///< completed epochs (including restored)
    int epochs_claimed{0};   ///< the shard's slice size
};

void write_heartbeat(const std::filesystem::path& file, const shard_heartbeat& hb);

/// Read a heartbeat; nullopt when the file is absent or malformed (a torn
/// or half-provisioned beacon counts as "no news", never an error).
[[nodiscard]] std::optional<shard_heartbeat> read_heartbeat(
    const std::filesystem::path& file);

}  // namespace tcppred::testbed
