// Fuzz harness: testbed::load_csv over arbitrary bytes.
//
// Contract under test — the dataset loader consumes untrusted files and must
// either return a dataset or throw dataset_error; any other escape (crash,
// sanitizer report, foreign exception type) is a bug. The harness also groups
// the records into traces so records that *parse* are exercised a little.
//
// Built two ways (see tests/fuzz/CMakeLists.txt): as a libFuzzer target
// under -DREPRO_FUZZ=ON (Clang), or with the corpus-replay main() under any
// compiler, where it runs as the fuzz_corpus_dataset ctest.
#include <cstddef>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>

#include "testbed/dataset.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    std::istringstream in(std::string(reinterpret_cast<const char*>(data), size));
    try {
        const tcppred::testbed::dataset ds = tcppred::testbed::load_csv(in, "<fuzz>");
        (void)ds.traces();
    } catch (const tcppred::testbed::dataset_error&) {
        // The documented rejection path for malformed input.
    }
    return 0;
}
