// Fuzz harness: testbed::checkpoint_reader over arbitrary bytes.
//
// Contract under test — a checkpoint journal is read back on --resume and
// by the shard merge, so the reader consumes untrusted files (header,
// `rec,` lines, a torn final line) and must either stream records or throw
// dataset_error; any other escape (crash, sanitizer report, unbounded
// allocation steered by a hostile field, foreign exception type) is a bug.
// The input is parsed twice: once accepting any fingerprint, once
// demanding a specific one, so the mismatch path is exercised too.
//
// Built two ways (see tests/fuzz/CMakeLists.txt): as a libFuzzer target
// under -DREPRO_FUZZ=ON (Clang), or with the corpus-replay main() under any
// compiler, where it runs as the fuzz_corpus_checkpoint ctest.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"

namespace {

void parse_one(const std::string& bytes, const std::string& expected_fingerprint) {
    std::istringstream in(bytes);
    try {
        tcppred::testbed::checkpoint_reader reader(in, "<fuzz>", expected_fingerprint);
        (void)reader.total();
        while (reader.next()) {
            // Drain the journal: record parsing is where most of the work is.
        }
        // The valid prefix never claims more bytes than the input holds.
        if (reader.valid_bytes() > bytes.size()) std::abort();
        (void)reader.torn_tail();
    } catch (const tcppred::testbed::dataset_error&) {
        // The documented rejection path for malformed input.
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string bytes(reinterpret_cast<const char*>(data), size);
    parse_one(bytes, "");
    parse_one(bytes, "deadbeefdeadbeefdeadbeefdeadbeef");
    return 0;
}
