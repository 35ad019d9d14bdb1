// Sharding a campaign across hosts (DESIGN.md §15).
//
// A shard is a deterministic slice of the linearized (path, trace, epoch)
// grid. Each `--shard i/N` run claims exactly one shard via the campaign
// sweep's epoch_filter and persists it into its own journal (an unfinished
// record store keyed by the same v2 config fingerprint, record_store.hpp).
// This file holds the shard arithmetic and the shard journal's name; the
// merge (merge_shard_journals, record_store.hpp) walks the shard journals
// back into one linear record stream whose bytes equal a serial run's —
// epochs are independently seeded, every journal is sorted, and doubles
// round-trip through hexfloat, so *which process* ran an epoch can never
// show in the output.
#pragma once

#include <filesystem>
#include <functional>
#include <optional>
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

/// A shard's journal, derived from the output path:
/// `<out>.shard-<i>-of-<N>.ckpt`.
[[nodiscard]] std::filesystem::path shard_checkpoint_path(
    const std::filesystem::path& out, shard_ref ref);

}  // namespace tcppred::testbed
