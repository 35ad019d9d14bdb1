// Chunked columnar record store (DESIGN.md §16): the past-RAM persistence
// format for campaign datasets. Records live in fixed-size column chunks
// with hexfloat-exact number encoding, a footer index keyed on the v2
// campaign fingerprint locates every chunk, and sequential reader/writer
// cursors stream a store with O(chunk_capacity) memory — callers never hold
// a whole dataset. The legacy v1 CSV becomes a *conversion* (store_to_csv),
// byte-identical to save_csv on the same records by construction: the store
// carries the catalogue lines verbatim and the conversion reuses the
// write_csv_* emitters (dataset.hpp).
//
// Layering: this module ("store" in tools/lint/tcppred_lint.conf) sits on
// top of testbed — it includes campaign/checkpoint/dataset, nothing in
// testbed includes it. The campaign sweep and the shard merge live in
// campaign.cpp/shard.cpp and feed a sink; this module only selects
// record_writer::append as that sink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "testbed/campaign.hpp"
#include "testbed/dataset.hpp"

namespace tcppred::testbed {

/// Tuning for record_writer.
struct store_options {
    /// Records per column chunk. Writer and reader memory are O(this); the
    /// footer index is O(total / this).
    std::size_t chunk_capacity{1024};
};

/// Hard ceiling on the chunk_capacity a reader will accept: the memory
/// bound against hostile headers, far above any sane tuning.
inline constexpr std::size_t k_max_chunk_capacity = std::size_t{1} << 20;

/// Sequential store writer. Records must be appended in ascending linear
/// campaign order — (path, trace, epoch), the order run_campaign's records
/// vector and dataset::traces() share — so a store's record order is the
/// sorted order every reader can rely on. Data is written to a same-
/// directory temp file and atomically renamed into place by finish();
/// a crash (or abort()) before finish() never touches the target.
class record_writer {
public:
    /// `catalog_lines` are the verbatim "#path,..." CSV catalogue lines
    /// (csv_catalog_lines); `fingerprint` is the v2 campaign fingerprint.
    record_writer(const std::filesystem::path& file, std::string fingerprint,
                  std::vector<std::string> catalog_lines, store_options opts = {});
    ~record_writer();
    record_writer(const record_writer&) = delete;
    record_writer& operator=(const record_writer&) = delete;

    void append(const epoch_record& rec);

    /// Flush the final chunk, write the footer index, and atomically publish
    /// the store. Throws on I/O failure. No-op when already finished.
    void finish();

    /// Drop the temp file without publishing; the target is never touched.
    void abort() noexcept;

    [[nodiscard]] std::size_t total() const noexcept { return total_; }

private:
    void flush_chunk();

    std::filesystem::path file_;
    std::filesystem::path tmp_;
    std::ofstream out_;
    store_options opts_;
    std::vector<epoch_record> buf_;   // current chunk, O(chunk_capacity)
    struct chunk_ref {
        std::uint64_t offset{0};
        std::size_t count{0};
    };
    std::vector<chunk_ref> chunks_;   // footer index, O(total / chunk_capacity)
    std::size_t total_{0};
    std::size_t n_traces_{0};
    std::size_t n_faulted_{0};
    int last_path_{0};
    int last_trace_{0};
    bool have_last_{false};
    bool finished_{false};
    bool aborted_{false};
};

/// Sequential store reader: validates the footer index and header up front
/// (including the fingerprint when `expected_fingerprint` is non-empty;
/// empty accepts any campaign), then streams records in linear order with
/// O(chunk_capacity) memory. The footer's trace and fault counts are
/// checked against the records at the end of the stream: the next() that
/// would return false throws instead when they disagree. Every malformed
/// input throws dataset_error — this is an untrusted-input parser (fuzzed
/// by fuzz_record_store).
class record_reader {
public:
    explicit record_reader(const std::filesystem::path& file,
                           const std::string& expected_fingerprint = {});
    /// Over an already-open seekable stream (tests, the fuzz harness);
    /// `context` only labels dataset_error messages.
    record_reader(std::istream& in, std::filesystem::path context,
                  const std::string& expected_fingerprint = {});

    /// Fill `out` with the next record; false at end of store. Throws
    /// dataset_error at the end when the footer's counts are not the
    /// records' own.
    [[nodiscard]] bool next(epoch_record& out);

    [[nodiscard]] const std::string& fingerprint() const noexcept { return fingerprint_; }
    [[nodiscard]] std::size_t total() const noexcept { return total_; }
    /// Distinct (path, trace) pairs among the records, as the footer
    /// claims (verified once next() has streamed every record).
    [[nodiscard]] std::size_t n_traces() const noexcept { return n_traces_; }
    /// Records carrying a nonzero fault_flags, as the footer claims.
    [[nodiscard]] std::size_t n_faulted() const noexcept { return n_faulted_; }
    [[nodiscard]] bool any_faults() const noexcept { return n_faulted_ > 0; }
    [[nodiscard]] std::size_t chunk_capacity() const noexcept { return chunk_capacity_; }
    /// The verbatim "#path,..." catalogue lines the store carries.
    [[nodiscard]] const std::vector<std::string>& catalog_lines() const noexcept {
        return catalog_lines_;
    }

private:
    void open_and_validate(const std::string& expected_fingerprint);
    void load_chunk();

    std::ifstream own_;   // only used by the path constructor
    std::istream* in_{nullptr};
    std::filesystem::path file_;
    std::string fingerprint_;
    std::vector<std::string> catalog_lines_;
    std::size_t chunk_capacity_{0};
    std::size_t total_{0};
    std::size_t n_traces_{0};
    std::size_t n_faulted_{0};
    struct chunk_ref {
        std::uint64_t offset{0};
        std::size_t count{0};
    };
    std::vector<chunk_ref> chunks_;
    std::vector<epoch_record> cur_;   // decoded current chunk
    std::size_t cur_pos_{0};
    std::size_t next_chunk_{0};
    std::size_t line_no_{0};          // during sequential (header/chunk) reads
    std::string line_;                     // the column line being decoded
    std::vector<std::string_view> fields_; // views into line_
    // What next() has streamed, checked against the footer at the end.
    std::size_t seen_traces_{0};
    std::size_t seen_faulted_{0};
    int last_path_{0};
    int last_trace_{0};
};

/// Convert a store to the legacy v1 analysis CSV, streaming (O(chunk)
/// memory). Byte-identical to save_csv over the same records: catalogue
/// lines are copied verbatim and records go through the shared
/// write_csv_record emitter; the optional fault_flags column is driven by
/// the footer's fault count, exactly as save_csv's any-fault scan would
/// (the reader verifies that count at the end). The CSV goes to a
/// same-directory temp file renamed into place on success, so a rejected
/// store leaves nothing at `csv_file`.
void store_to_csv(record_reader& in, const std::filesystem::path& csv_file);

/// sweep_campaign (campaign.hpp) with record_writer::append as its sink: a
/// campaign written straight to a record store instead of an in-memory
/// dataset. Records reach the store in linear order through the sweep's
/// reorder window, and a resumed run streams its journal's records into the
/// writer first. Peak memory is O(chunk + reorder window +
/// jobs·epochs_per_trace) — independent of the grid size. The store is
/// published only when the run completes; an interrupted run leaves the
/// journal (when opts.checkpoint is set) and no store. opts.epoch_filter
/// must be empty: a store holds the whole grid.
[[nodiscard]] campaign_outcome run_campaign_streamed(
    const campaign_config& cfg, const std::filesystem::path& store_file,
    const campaign_run_options& opts = {}, progress_fn progress = nullptr,
    store_options store = {});

/// merge_shard_journals (shard.hpp) with record_writer::append as its sink:
/// O(shards · record + chunk) memory, whatever the grid size. Throws
/// dataset_error like merge_shard_checkpoints, and the store is then never
/// published. Returns the merged record count (the full grid).
std::size_t merge_shard_checkpoints_to_store(
    const campaign_config& cfg, const std::vector<std::filesystem::path>& shard_ckpts,
    const std::filesystem::path& store_file, store_options opts = {});

}  // namespace tcppred::testbed
