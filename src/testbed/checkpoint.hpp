// The serialization primitives of the bit-exact formats (the record store,
// testbed/record_store.hpp, and the serve snapshot): hexd/parse_hexd for
// doubles, the whole-token integer field parsers, the v3 campaign
// fingerprint with its field-by-field diff, and the atomic publisher
// (atomic_write_stream). The record files themselves are written and read
// only by record_store.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "testbed/campaign.hpp"

namespace tcppred::testbed {

/// Bit-exact double -> text: the serialization primitive shared by every
/// bit-exact format (the record store, serve snapshots). The text is
/// glibc's printf("%a") byte for byte, whatever LC_NUMERIC says: "0x1.8p+1"
/// (trailing fraction zeros stripped, no '.' for a zero fraction),
/// "0x0p+0" for zero, "0x0.<hex>p-1022" for subnormals, "inf" and "nan",
/// each with '-' when the sign bit is set. Decimal at any precision does
/// not guarantee the round trip; hexfloat does, and strtod parses it back
/// everywhere (istream extraction of hexfloat is not required to work, and
/// does not in libstdc++).
[[nodiscard]] std::string hexd(double v);

/// Room for the longest hexd() text, "-0x1.fffffffffffffp+1023".
using hexd_buffer = std::array<char, 24>;

/// hexd() into `buf`, without allocating: the view is valid while `buf` is.
[[nodiscard]] std::string_view hexd(double v, hexd_buffer& buf) noexcept;

/// Parse a hexd()-formatted field back to the identical double. Throws
/// dataset_error (with `file`/`line_no` context) unless the entire field
/// parses as one float. Accepts exactly what strtod takes whole; the forms
/// hexd() prints are decoded in place by std::from_chars, to the same bits.
[[nodiscard]] double parse_hexd(std::string_view s, const std::filesystem::path& file,
                                std::size_t line_no);

/// Whole-token integer fields of the bit-exact formats (the record store,
/// serve snapshots) through core::parse_checked_*: a partial token ("12x"), a
/// sign on an unsigned field, overflow or a value above `max` throws
/// dataset_error naming `file`, `line_no` and the field `name`.
[[nodiscard]] std::uint64_t parse_u64_field(std::string_view name, std::string_view text,
                                            const std::filesystem::path& file,
                                            std::size_t line_no,
                                            std::uint64_t max = UINT64_MAX);
[[nodiscard]] int parse_i32_field(std::string_view name, std::string_view text,
                                  const std::filesystem::path& file, std::size_t line_no);

/// Revision of what the simulator computes. A campaign's records are a
/// function of its config and of this number, and the fingerprint carries
/// it, so every journal, store and cached figure dataset written by code of
/// another revision is refused (and the cache regenerated). Bump it in the
/// commit that changes any campaign's output bytes — a CSV byte, i.e. one
/// that re-pins a golden, or a store column such as `events` (DESIGN.md
/// §13.6); engine_golden_test pins it next to digests of the tiny
/// campaign-1 and campaign-2 CSVs under both cross-traffic models.
inline constexpr int k_simulator_revision = 3;

/// One named field of a campaign fingerprint, e.g. {"seed", "20040501"}.
struct fingerprint_field {
    std::string name;
    std::string value;
};

/// The fingerprint decomposed into named fields, in serialization order.
/// campaign_fingerprint() is exactly the '|'-join of the values, so the two
/// can never drift; the names exist to turn a mismatch into an actionable
/// diagnosis ("seed: store=X requested=Y") instead of a bare
/// "fingerprint mismatch".
[[nodiscard]] std::vector<fingerprint_field> campaign_fingerprint_fields(
    const campaign_config& cfg);

/// Identity of everything that shapes a campaign's records: the simulator
/// revision, sizes, seeds, fault profile, epoch parameters and the
/// cross-traffic model. Deliberately excludes cfg.jobs — the
/// dataset is job-count-invariant (DESIGN.md §6), so a run checkpointed at
/// one REPRO_JOBS may resume at another.
[[nodiscard]] std::string campaign_fingerprint(const campaign_config& cfg);

/// Field-by-field diff of two fingerprint strings, for error messages:
/// each differing field as "name: store=<old> requested=<new>", where the
/// store is the refused file — a journal (an unfinished store), a finished
/// store or the figure cache. Positional — both sides are split on '|' and
/// compared slot by slot (slot names from the campaign_fingerprint_fields
/// schema).
[[nodiscard]] std::string describe_fingerprint_mismatch(const std::string& in_store,
                                                        const std::string& requested);

/// The temp file a streamed output is written to before its rename: beside
/// `file`, so the rename never crosses filesystems, and named with the pid.
[[nodiscard]] std::filesystem::path same_dir_temp(const std::filesystem::path& file);

/// Publish a streamed text file: `write` fills a stream on
/// same_dir_temp(file), the stream is checked after close, and rename(2)
/// puts the temp in place, so readers see the old file or the whole new
/// one. An exception from `write`, a failed write (a full disk, a file size
/// limit) or a failed rename throws with `who` in the message, removes the
/// temp and leaves `file` untouched. Nothing is buffered beyond the
/// stream's own buffer, so an output the size of a campaign never sits in
/// memory.
void atomic_write_stream(const std::filesystem::path& file, std::string_view who,
                         const std::function<void(std::ostream&)>& write);

}  // namespace tcppred::testbed
