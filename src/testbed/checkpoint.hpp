// Campaign checkpoints: the append-only journal of the records a campaign
// sweep has released, so an interrupted campaign resumes instead of
// restarting (DESIGN.md §10.4). Three header lines (magic, config
// fingerprint, grid total), then one `rec,` line per record in ascending
// linear order. Invariants the format defends:
//  - doubles round-trip bit-exactly (hexfloat), so a resumed campaign's
//    output is byte-identical to an uninterrupted run's;
//  - the first flush creates the file atomically, so a journal that exists
//    has a whole header; later flushes append, and a kill -9 mid-append
//    leaves at most one torn final line (no '\n'), the end of the valid
//    prefix a reader returns;
//  - resuming under any other config than the fingerprint's (different
//    seed, size, fault profile — anything but the job count) is refused;
//  - indices ascend strictly, which lets the shard merge walk N journals
//    in lockstep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "testbed/campaign.hpp"

namespace tcppred::testbed {

/// A whole checkpoint as save_checkpoint's input: the done slots of a grid.
struct campaign_checkpoint {
    std::string fingerprint;
    std::size_t total{0};              ///< epochs in the full campaign
    std::vector<char> done;            ///< size == total; nonzero = completed
    std::vector<epoch_record> records; ///< size == total; only done slots valid
};

/// Bit-exact double -> text ("%a" hexfloat): the serialization primitive
/// shared by every bit-exact format (checkpoints, the record store).
/// Decimal at any precision does not guarantee the round trip; hexfloat
/// does, and strtod parses it back everywhere (istream extraction of
/// hexfloat is not required to work, and does not in libstdc++).
[[nodiscard]] std::string hexd(double v);

/// Parse a hexd()-formatted field back to the identical double. Throws
/// dataset_error (with `file`/`line_no` context) unless the entire field
/// parses as one float. Accepts exactly what strtod takes whole; the forms
/// hexd() prints are decoded in place by std::from_chars, to the same bits.
[[nodiscard]] double parse_hexd(std::string_view s, const std::filesystem::path& file,
                                std::size_t line_no);

/// Whole-token integer fields of the bit-exact formats (journals, the
/// record store) through core::parse_checked_*: a partial token ("12x"), a
/// sign on an unsigned field, overflow or a value above `max` throws
/// dataset_error naming `file`, `line_no` and the field `name`.
[[nodiscard]] std::uint64_t parse_u64_field(std::string_view name, std::string_view text,
                                            const std::filesystem::path& file,
                                            std::size_t line_no,
                                            std::uint64_t max = UINT64_MAX);
[[nodiscard]] int parse_i32_field(std::string_view name, std::string_view text,
                                  const std::filesystem::path& file, std::size_t line_no);

/// One named field of a campaign fingerprint, e.g. {"seed", "20040501"}.
struct fingerprint_field {
    std::string name;
    std::string value;
};

/// The fingerprint decomposed into named fields, in serialization order.
/// campaign_fingerprint() is exactly the '|'-join of the values, so the two
/// can never drift; the names exist to turn a mismatch into an actionable
/// diagnosis ("seed: checkpoint has X, this run has Y") instead of a bare
/// "fingerprint mismatch".
[[nodiscard]] std::vector<fingerprint_field> campaign_fingerprint_fields(
    const campaign_config& cfg);

/// Identity of everything that shapes a campaign's records: sizes, seeds,
/// fault profile, epoch parameters. Deliberately excludes cfg.jobs — the
/// dataset is job-count-invariant (DESIGN.md §6), so a run checkpointed at
/// one REPRO_JOBS may resume at another.
[[nodiscard]] std::string campaign_fingerprint(const campaign_config& cfg);

/// Field-by-field diff of two fingerprint strings, for error messages:
/// each differing field as "name: checkpoint=<old> requested=<new>".
/// Positional — both sides are split on '|' and compared slot by slot
/// (slot names from the campaign_fingerprint_fields schema).
[[nodiscard]] std::string describe_fingerprint_mismatch(const std::string& in_checkpoint,
                                                        const std::string& requested);

/// Write `contents` to `file` so that readers only ever observe the old
/// bytes or the new bytes, never a torn file. The temp file lands in
/// $TMPDIR when set (else next to `file`) and is published with rename(2);
/// when the temp and target sit on different filesystems (rename fails
/// EXDEV) it falls back to copy + fsync + same-directory rename. The test
/// hook $TCPPRED_FORCE_EXDEV=1 forces the fallback path.
void atomic_write_text(const std::filesystem::path& file, const std::string& contents);

/// Append-only journal writer (the sweep's and save_checkpoint's). add()
/// buffers records in ascending linear order; the first flush of a fresh
/// journal writes header and batch in one atomic_write_text, every later
/// flush appends only the lines added since — O(lines added), never
/// O(journal).
class checkpoint_journal {
public:
    /// `append` = `file` already holds a valid journal of this fingerprint
    /// and total (a resumed run), so even the first flush appends.
    checkpoint_journal(std::filesystem::path file, const std::string& fingerprint,
                       std::size_t total, bool append = false);

    void add(std::size_t idx, const epoch_record& rec);

    /// Write what add() buffered since the last flush; false (nothing
    /// written) when there is no new line and the file exists. Throws
    /// std::runtime_error on I/O failure.
    bool flush();

private:
    std::filesystem::path file_;
    std::string buf_;     // unflushed bytes (the header too, before the first flush)
    std::ofstream out_;   // append stream, opened once the file exists
    bool on_disk_{false};
};

/// Write `ck`'s done slots as a fresh journal (one atomic create). Only a
/// journal whose done slots are a prefix of the claimed order resumes.
void save_checkpoint(const campaign_checkpoint& ck, const std::filesystem::path& file);

/// Streaming cursor over a checkpoint journal, O(1) memory: the header is
/// validated up front — against `expected_fingerprint` and
/// `expected_total` unless empty / 0 — then records surface one `rec` line
/// at a time. Every malformed input throws dataset_error naming the file
/// and line: this is an untrusted-input parser (fuzz_checkpoint).
class checkpoint_reader {
public:
    checkpoint_reader(const std::filesystem::path& file,
                      const std::string& expected_fingerprint,
                      std::size_t expected_total = 0);
    /// Over an already-open stream; `context` only labels errors.
    checkpoint_reader(std::istream& in, std::filesystem::path context,
                      const std::string& expected_fingerprint,
                      std::size_t expected_total = 0);

    [[nodiscard]] const std::string& fingerprint() const noexcept { return fingerprint_; }
    [[nodiscard]] std::size_t total() const noexcept { return total_; }

    /// The next record and its linear index; nullopt at the end of the
    /// valid prefix: end of file, or a final line lacking its '\n' (a torn
    /// tail). Throws dataset_error on a malformed line, an out-of-range
    /// index, or an index not above the previous one.
    [[nodiscard]] std::optional<std::pair<std::size_t, epoch_record>> next();

    [[nodiscard]] bool torn_tail() const noexcept { return torn_tail_; }
    /// Bytes of the header and every whole line read so far; truncating
    /// the file to this drops a torn tail.
    [[nodiscard]] std::uint64_t valid_bytes() const noexcept { return valid_bytes_; }
    [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }

private:
    std::istream& in() { return in_ != nullptr ? *in_ : own_; }
    void read_header(const std::string& expected_fingerprint, std::size_t expected_total);

    std::ifstream own_;            // only used by the path constructor
    std::istream* in_{nullptr};    // the stream constructor's input
    std::filesystem::path file_;
    std::string fingerprint_;
    std::size_t total_{0};
    std::size_t line_no_{0};
    std::uint64_t valid_bytes_{0};
    std::optional<std::size_t> last_idx_;
    bool torn_tail_{false};
    std::string line_;                     // the current line, reused
    std::vector<std::string_view> fields_; // views into line_
};

}  // namespace tcppred::testbed
