// Fuzz harness: testbed::record_reader over arbitrary bytes.
//
// Contract under test — the record store reader consumes untrusted files
// (header, `rec` lines, footer and end line; a journal's torn tail) and must
// either stream records or throw dataset_error; any other escape (crash,
// sanitizer report, unbounded allocation steered by a hostile field, foreign
// exception type) is a bug. The input is parsed three ways: as a finished
// store accepting any fingerprint, as one demanding a specific fingerprint
// (the mismatch path), and as a journal, whose valid prefix must never claim
// more bytes than the input holds.
//
// Built two ways (see tests/fuzz/CMakeLists.txt): as a libFuzzer target
// under -DREPRO_FUZZ=ON (Clang), or with the corpus-replay main() under any
// compiler, where it runs as the fuzz_corpus_record_store ctest.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "testbed/dataset.hpp"
#include "testbed/record_store.hpp"

namespace {

using tcppred::testbed::record_reader;

void parse_one(const std::string& bytes, const std::string& expected_fingerprint,
               record_reader::mode mode) {
    std::istringstream in(bytes);
    try {
        record_reader reader(in, "<fuzz>", expected_fingerprint, mode);
        tcppred::testbed::epoch_record rec;
        while (reader.next(rec)) {
            // Drain the whole store: record decoding is where most of the
            // parsing lives, and the footer's counts are checked at the end.
        }
        (void)reader.catalog_lines();
        (void)reader.n_traces();
        (void)reader.n_faulted();
        if (mode == record_reader::mode::journal && reader.valid_bytes() > bytes.size()) {
            std::abort();
        }
    } catch (const tcppred::testbed::dataset_error&) {
        // The documented rejection path for malformed input.
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string bytes(reinterpret_cast<const char*>(data), size);
    parse_one(bytes, "", record_reader::mode::finished);
    parse_one(bytes, "deadbeefdeadbeefdeadbeefdeadbeef", record_reader::mode::finished);
    parse_one(bytes, "", record_reader::mode::journal);
    return 0;
}
