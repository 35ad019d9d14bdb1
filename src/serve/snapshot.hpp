// Serve daemon snapshots: the path table persisted as an event-sourced
// replay log, reusing the repo's bit-exact persistence primitives
// (testbed::hexd + atomic_write_stream, DESIGN.md §17).
//
// Format (line-oriented, doubles in hexfloat):
//
//   tcppred-serve-snapshot,v1
//   specs,<spec1>;<spec2>;...
//   paths,<path count>
//   path,<name>,<event count>
//   ev,<epoch>,<availbw>,<phat>,<phat_events>,<that_s>,<r_large>,<flags>
//   ...
//   end,<total events>
//
// Paths are emitted in ascending name order (shard-count independent), each
// followed by its events in observation order. Restoring replays every
// event through path_table::observe — the same predict-then-observe apply
// path live requests take — so a restored daemon's predictor state and
// cached forecasts are bitwise identical to the one that wrote the
// snapshot, and re-rendering immediately after a restore reproduces the
// file byte for byte (the round-trip test pins this).
//
// The specs line is the snapshot's fingerprint: restoring under any other
// spec list is refused (testbed::dataset_error), mirroring the campaign
// checkpoint contract.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>

#include "serve/path_table.hpp"

namespace tcppred::serve {

/// What a snapshot load replayed.
struct snapshot_stats {
    std::size_t paths{0};
    std::uint64_t events{0};
};

/// Stream the table's snapshot text (format above) into `out`, line by
/// line, under path_table::visit_sorted's locks: the path count and every
/// path's events are one consistent cut, and nothing table-sized is
/// buffered beyond `out` itself.
void render_snapshot(const path_table& table, std::ostream& out);

/// The same text as a string (tests, the benchmark's reference).
[[nodiscard]] std::string render_snapshot(const path_table& table);

/// Stream the snapshot into a same-directory temp file and rename it into
/// place (testbed::atomic_write_stream): readers only ever observe the
/// previous snapshot or this one, never a torn file. Throws
/// std::runtime_error naming the file on any I/O failure, leaving the
/// previous snapshot untouched.
void write_snapshot(const path_table& table, const std::filesystem::path& file);

/// Parse `file` and replay every event into `table` (which must be empty
/// and configured with the exact spec list the snapshot names). Throws
/// testbed::dataset_error on a malformed file or a spec-list mismatch.
snapshot_stats load_snapshot(path_table& table, const std::filesystem::path& file);

/// The specs fingerprint line body for a spec list (';'-joined).
[[nodiscard]] std::string join_specs(const std::vector<std::string>& specs);

}  // namespace tcppred::serve
