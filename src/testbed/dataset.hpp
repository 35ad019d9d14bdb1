// The measurement dataset: one record per epoch, CSV persistence so a
// campaign is generated once and shared by every analysis/bench binary
// (exactly as the paper separates trace collection from analysis).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "testbed/epoch_runner.hpp"

namespace tcppred::testbed {

/// A malformed-dataset failure, pinpointing where in the file the loader
/// gave up: `file():line():column(): reason`. Line numbers are 1-based;
/// column is the 1-based CSV field index (0 when the whole line is bad).
class dataset_error : public std::runtime_error {
public:
    dataset_error(std::filesystem::path file, std::size_t line, std::size_t column,
                  const std::string& reason);

    [[nodiscard]] const std::filesystem::path& file() const noexcept { return file_; }
    [[nodiscard]] std::size_t line() const noexcept { return line_; }
    [[nodiscard]] std::size_t column() const noexcept { return column_; }

private:
    std::filesystem::path file_;
    std::size_t line_;
    std::size_t column_;
};

/// One epoch's results, keyed by (path, trace, epoch).
struct epoch_record {
    int path_id{0};
    int trace_id{0};
    int epoch_index{0};
    epoch_measurement m;
};

/// A full campaign's records plus the catalogue that produced them.
struct dataset {
    std::vector<path_profile> paths;
    std::vector<epoch_record> records;

    /// Group records into per-(path, trace) series, ordered by epoch index.
    [[nodiscard]] std::map<std::pair<int, int>, std::vector<const epoch_record*>>
    traces() const;

    /// The W=1MB throughput series of one trace, ordered by epoch.
    [[nodiscard]] std::vector<double> throughput_series(int path_id, int trace_id) const;
    /// The W=20KB throughput series of one trace.
    [[nodiscard]] std::vector<double> small_window_series(int path_id, int trace_id) const;

    [[nodiscard]] const path_profile& profile(int path_id) const;
};

/// Write records as CSV (one header line, one line per epoch). A
/// `fault_flags` column is appended only when at least one record carries a
/// nonzero flag, so fault-free campaigns serialize byte-identically to
/// datasets written before the fault layer existed.
void save_csv(const dataset& data, const std::filesystem::path& file);

/// Streaming emitters of the legacy v1 analysis CSV, shared by save_csv and
/// the record-store conversion (record_store.hpp) so that "store -> CSV" is
/// byte-identical to save_csv by construction, not by parallel maintenance.
/// Each call configures the stream itself (decimal, precision 10);
/// `any_faults` must be the same value for the header and every record of
/// one file (it decides the optional fault_flags column).
void write_csv_catalog(std::ostream& out, const std::vector<path_profile>& paths);
void write_csv_header(std::ostream& out, bool any_faults);
void write_csv_record(std::ostream& out, const epoch_record& r, bool any_faults);

/// The catalogue lines write_csv_catalog would emit, one string per path,
/// without trailing newlines — the verbatim form the record store carries in
/// its header so conversion back to CSV needs no re-formatting.
[[nodiscard]] std::vector<std::string> csv_catalog_lines(
    const std::vector<path_profile>& paths);

/// Project a record through the v1 CSV number format: every measurement
/// double is rendered exactly as save_csv would render it and parsed back
/// exactly as load_csv would parse it, fields the CSV does not carry
/// (sim_time_s, events) are zeroed, and prefix goodputs get the CSV's
/// pad-to-3/drop-non-positive treatment. Evaluating csv_normalized_record(r)
/// is bitwise equivalent to evaluating r after a save_csv/load_csv round
/// trip — the bridge that lets streamed, store-backed analysis reproduce the
/// pinned CSV-derived goldens without materializing a CSV.
[[nodiscard]] epoch_record csv_normalized_record(const epoch_record& r);

/// Split one line of a comma- or bar-separated format at `sep`. A trailing
/// empty field is dropped ("a,b," -> {"a", "b"}); the CSV, checkpoint and
/// record-store readers all rely on that.
[[nodiscard]] std::vector<std::string> split_fields(const std::string& line, char sep);

/// Read records back. The path catalogue is re-derived from the stored
/// catalogue parameters line; the optional `fault_flags` column is detected
/// from the header. NaN fields are legal in measurement columns (a failed
/// measurement); everything else malformed throws dataset_error with the
/// offending file/line/column.
[[nodiscard]] dataset load_csv(const std::filesystem::path& file);

/// Same parse over an already-open stream. `context` only labels
/// dataset_error messages; nothing is read from the filesystem. This is the
/// entry point the fuzz harness drives, so it must stay safe on arbitrary
/// bytes: throw dataset_error, never crash or allocate unboundedly.
[[nodiscard]] dataset load_csv(std::istream& in,
                               const std::filesystem::path& context = "<stream>");

}  // namespace tcppred::testbed
