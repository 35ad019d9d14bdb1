// The record store (DESIGN.md §16): the one file format for campaign
// records, `tcppred-store,v2`, and every read and write of it.
//
//   tcppred-store,v2
//   fingerprint,<v4 campaign fingerprint>
//   paths,<K>
//   <K "#path,..." catalogue lines, verbatim>
//   rec,<path>,<trace>,<epoch>,<12 hexfloats>,<events>,<fault_flags>,
//       <n_prefix>,<2·n_prefix hexfloats>          (one line per record)
//   footer,<records>,<traces>,<faulted>            (finished stores only)
//   end,<byte offset of the footer line>
//
// Records appear in ascending linear campaign order, (path, trace, epoch).
// An unfinished store is the resume journal (<out>.ckpt, a shard's
// <out>.shard-i-of-N.ckpt): finishing one appends the footer and renames it
// into place. A row line has no boundary that depends on flush cadence, so
// a store's bytes are the same at any --jobs, any --checkpoint-every and any
// interruption point. Invariants the format defends:
//  - doubles round-trip bit-exactly (hexd), integers are whole checked
//    tokens, and every rejection is a dataset_error naming file and line;
//  - a journal that exists has a whole header (its first flush creates it
//    atomically); later flushes append, and its valid prefix is the header
//    plus every whole `rec` line: a final line without '\n', or a `footer`
//    or `end` line, ends it, and resume truncates to it before appending;
//  - a finished store appears at its name only by rename, and its footer's
//    counts are checked against the records at the end of the stream;
//  - a journal resumes only under this run's header (fingerprint and
//    catalogue) and only if its records are the first k claimed indices.
// The CSV is a conversion (store_to_csv), byte-identical to save_csv on the
// same records by construction: the store carries the catalogue lines
// verbatim and the conversion reuses the write_csv_* emitters (dataset.hpp).
// Every campaign is written as a store first; a CSV output is the export of
// a staging store (export_store_to_csv), and the figure cache is a store
// read back under its fingerprint (load_or_run).
//
// Layering: this module ("store" in tools/lint/tcppred_lint.conf) sits on
// top of testbed and holds all record persistence; nothing in testbed
// includes it. The journaled runners, the shard merge and the figure cache
// live here and select sinks of the one sweep (sweep_campaign,
// campaign.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "testbed/campaign.hpp"
#include "testbed/dataset.hpp"

namespace tcppred::testbed {

/// What a store's footer counts, kept the same way by every writer and
/// reader: records, (path, trace) runs in file order, and records with a
/// nonzero fault_flags.
struct record_counts {
    std::size_t records{0};
    std::size_t traces{0};
    std::size_t faulted{0};
    int last_path{0};
    int last_trace{0};

    void add(const epoch_record& rec) noexcept;
};

class record_reader;

/// Sequential writer of a store. Records must be appended in ascending
/// linear campaign order. A store written without a journal goes to a
/// same-directory temp file that finish() renames into place; a crash, or
/// abort(), before finish() never touches the target.
class record_writer {
public:
    /// A store published at `file` by finish(). `catalog_lines` are the
    /// verbatim "#path,..." CSV catalogue lines (csv_catalog_lines);
    /// `fingerprint` is the campaign fingerprint (checkpoint.hpp).
    record_writer(const std::filesystem::path& file, const std::string& fingerprint,
                  const std::vector<std::string>& catalog_lines);
    /// A journal at `journal`: the unfinished store that finish() renames to
    /// `file` (empty for a journal that is only ever flushed). A fresh
    /// journal is created, header and records together, by the first
    /// flush(). With `prefix`, a journal reader that has streamed to the end
    /// of its valid prefix, the journal is cut back to that prefix and
    /// appended to, with the prefix's counts.
    record_writer(const std::filesystem::path& file, const std::filesystem::path& journal,
                  const std::string& fingerprint, const std::vector<std::string>& catalog_lines,
                  const record_reader* prefix = nullptr);
    ~record_writer();
    record_writer(const record_writer&) = delete;
    record_writer& operator=(const record_writer&) = delete;

    void append(const epoch_record& rec);

    /// Write every record appended since the last flush. False (nothing
    /// written) when there was none and the file already exists. Throws
    /// std::runtime_error on I/O failure.
    bool flush();

    /// Append the footer and publish the store at `file` by rename. Throws
    /// on I/O failure. No-op when already finished.
    void finish();

    /// Stop without publishing: a temp file is removed, a journal is left as
    /// its last flush wrote it (it is the resume point). The destructor of
    /// an unfinished writer calls this.
    void abort() noexcept;

private:
    bool write_buffer();

    std::filesystem::path file_;   // the finished store's name
    std::filesystem::path path_;   // where the bytes go: the temp or the journal
    bool journal_{false};
    bool on_disk_{false};          // path_ exists, with a whole header
    std::ofstream out_;
    std::string buf_;              // bytes not yet written to path_
    std::uint64_t size_{0};        // bytes of the file so far, buffered ones included
    record_counts counts_;
    bool finished_{false};
    bool aborted_{false};
};

/// Sequential reader of a store, O(one line) memory. The header is read up
/// front (its fingerprint checked when `expected_fingerprint` is non-empty;
/// empty accepts any campaign), then next() decodes one `rec` line at a
/// time into the caller's record. Every malformed input throws
/// dataset_error naming the file and line: this is an untrusted-input
/// parser (fuzz_record_store).
class record_reader {
public:
    /// What the reader accepts: a finished store, whose footer it finds at
    /// open (an unfinished one is refused, pointing at --resume), or a
    /// journal's valid prefix.
    enum class mode { finished, journal };

    explicit record_reader(const std::filesystem::path& file,
                           const std::string& expected_fingerprint = {},
                           mode m = mode::finished);
    /// Over an already-open stream (tests, the fuzz harness); `context` only
    /// labels dataset_error messages. A finished store's stream must seek.
    record_reader(std::istream& in, std::filesystem::path context,
                  const std::string& expected_fingerprint = {}, mode m = mode::finished);

    /// Fill `out` with the next record; false at the end of the records. In
    /// a finished store that end throws instead when the footer's counts are
    /// not the records' own.
    [[nodiscard]] bool next(epoch_record& out);

    [[nodiscard]] const std::filesystem::path& file() const noexcept { return file_; }
    /// The verbatim "#path,..." catalogue lines the store carries.
    [[nodiscard]] const std::vector<std::string>& catalog_lines() const noexcept {
        return catalog_lines_;
    }
    /// A finished store's footer counts (verified once next() has streamed
    /// every record); zero for a journal, which has no footer.
    [[nodiscard]] std::size_t total() const noexcept { return footer_.records; }
    [[nodiscard]] std::size_t n_traces() const noexcept { return footer_.traces; }
    [[nodiscard]] std::size_t n_faulted() const noexcept { return footer_.faulted; }
    [[nodiscard]] bool any_faults() const noexcept { return footer_.faulted > 0; }
    /// The counts of the records next() has returned.
    [[nodiscard]] const record_counts& streamed() const noexcept { return seen_; }

    /// Journal: bytes follow the valid prefix (a torn line, or a footer) and
    /// resume must cut them off.
    [[nodiscard]] bool torn_tail() const noexcept { return torn_tail_; }
    /// Bytes of the header and of every record line returned so far.
    [[nodiscard]] std::uint64_t valid_bytes() const noexcept { return valid_bytes_; }
    /// The line of the record next() returned last.
    [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }

private:
    std::istream& in() { return in_ != nullptr ? *in_ : own_; }
    void open(const std::string& expected_fingerprint);
    void read_footer(std::uint64_t size);

    std::ifstream own_;            // only used by the path constructor
    std::istream* in_{nullptr};    // the stream constructor's input
    std::filesystem::path file_;
    mode mode_;
    std::vector<std::string> catalog_lines_;
    record_counts footer_;
    record_counts seen_;
    std::uint64_t footer_offset_{0};
    std::uint64_t valid_bytes_{0};
    std::size_t line_no_{0};
    bool torn_tail_{false};
    bool done_{false};
    std::string line_;                     // the current line, reused
    std::vector<std::string_view> fields_; // views into line_
};

/// Convert a finished store to the legacy v1 analysis CSV, streaming (O(one
/// line) memory). Byte-identical to save_csv over the same records:
/// catalogue lines are copied verbatim and records go through the shared
/// write_csv_record emitter; the optional fault_flags column is driven by
/// the footer's fault count, exactly as save_csv's any-fault scan would
/// (the reader verifies that count at the end). The CSV goes to a
/// same-directory temp file renamed into place on success, so a rejected
/// store leaves nothing at `csv_file`.
void store_to_csv(record_reader& in, const std::filesystem::path& csv_file);

/// sweep_campaign into a store at `store_file`. Peak memory is
/// O(reorder window + jobs·epochs_per_trace), independent of the grid size.
/// The store is published only when the run completes: without a journal it
/// is built in a temp file, and with one (opts.checkpoint) the journal is
/// the store and finishing renames it. An interrupted run leaves the
/// journal, if any, and no store. A resumed run streams the journal's
/// prefix (opts.resume), and the journal grows every opts.checkpoint_every
/// records and once more after a cancel or a worker error.
/// With opts.epoch_filter the run claims a slice (a shard): it needs a
/// journal, `store_file` must be empty, and a complete run flushes the
/// journal and keeps it unfinished, since the slice's journal is its
/// product.
[[nodiscard]] campaign_outcome run_campaign_streamed(
    const campaign_config& cfg, const std::filesystem::path& store_file,
    const campaign_run_options& opts = {}, progress_fn progress = nullptr);

/// The staging store a CSV output is written through: `<csv_file>.store`.
/// Its name never collides with same_dir_temp(csv_file), the CSV's own
/// temp, nor with the store's temp or a journal.
[[nodiscard]] std::filesystem::path csv_staging_store(const std::filesystem::path& csv_file);

/// Export the finished store at `store` to `csv_file` (store_to_csv), then
/// remove the store, whether or not the export succeeded: a failed export
/// leaves neither the CSV nor the store. Returns the record count.
std::size_t export_store_to_csv(const std::filesystem::path& store,
                                const std::filesystem::path& csv_file);

/// The one shard merge: a k-way walk over one journal record_reader per
/// shard, releasing the union of their records to `sink` in linear order
/// with O(shards · record) memory. Every file must exist ("missing"
/// otherwise) and carry cfg's header, and together the shards must cover
/// the whole grid — a gap throws "shards cover only X of Y epochs (first
/// missing linear index k)", and `sink` sees nothing past the gap. Overlap
/// is tolerated: the first shard in `shard_ckpts` holding an index wins
/// (duplicates are byte-identical anyway — epochs are pure functions of the
/// seed). The result is order-invariant. Returns the merged record count
/// (the full grid).
std::size_t merge_shard_journals(const campaign_config& cfg,
                                 const std::vector<std::filesystem::path>& shard_ckpts,
                                 const record_sink& sink);

/// merge_shard_journals into a store: O(shards · record) memory, whatever
/// the grid size. Throws dataset_error like merge_shard_journals, and the
/// store is then never published. Returns the merged record count.
std::size_t merge_shard_checkpoints_to_store(
    const campaign_config& cfg, const std::vector<std::filesystem::path>& shard_ckpts,
    const std::filesystem::path& store_file);

/// sweep_campaign into pre-sized dataset slots, journaled like
/// run_campaign_streamed when opts.checkpoint is set; a complete run without
/// a filter removes the journal. Holds the grid in RAM: no tool takes this
/// path. It stays only for the benchmark harness (bench/perf/perf_driver),
/// whose traced campaign replay calls it, until that replay moves to
/// run_campaign_streamed (ROADMAP.md).
[[nodiscard]] campaign_outcome run_campaign_resumable(const campaign_config& cfg,
                                                      const campaign_run_options& opts,
                                                      progress_fn progress = nullptr);

/// A grid's done slots, save_checkpoint's input. Kept, like
/// save_checkpoint, only for the benchmark harness's journal-write probe.
struct campaign_checkpoint {
    std::string fingerprint;
    std::size_t total{0};              ///< epochs in the full campaign
    std::vector<char> done;            ///< size == total; nonzero = completed
    std::vector<epoch_record> records; ///< size == total; only done slots valid
};

/// Write `ck`'s done slots as a fresh journal through record_writer, with an
/// empty catalogue (`paths,0`): `ck` carries none, so no campaign resumes
/// from it. Kept only as the journal-write probe of the benchmark harness
/// (bench/perf/perf_driver) until that probe moves (ROADMAP.md).
void save_checkpoint(const campaign_checkpoint& ck, const std::filesystem::path& file);

/// The figure cache: the store of `cfg`'s campaign at `file`, read through
/// record_reader under campaign_fingerprint(cfg), with every record passed
/// through csv_normalized_record and the catalogue parsed as load_csv parses
/// it, so the dataset equals load_csv of the store's CSV export. A store
/// the reader refuses (missing, of another config or simulator revision,
/// corrupt) is regenerated first with run_campaign_streamed, naming the
/// refusal on stderr. Whether cold or warm, the dataset returned is the one
/// read from the file. Progress goes to stderr.
[[nodiscard]] dataset load_or_run(const campaign_config& cfg,
                                  const std::filesystem::path& file);

/// The cached campaign-1 / campaign-2 datasets of the figure benches:
/// `$REPRO_DATA_DIR/campaign{1,2}_<scale>.store`, scale from $REPRO_SCALE.
[[nodiscard]] dataset ensure_campaign1();
[[nodiscard]] dataset ensure_campaign2();

}  // namespace tcppred::testbed
