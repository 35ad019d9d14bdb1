// Fuzz harness: serve::load_snapshot over arbitrary bytes.
//
// Contract under test — a daemon started with --resume replays an untrusted
// snapshot file into its path table and must either replay it or throw
// dataset_error; any other escape (crash, sanitizer report, unbounded
// allocation steered by a lying count, a foreign exception such as the
// TCPPRED_EXPECTS abort inside core::probability for an out-of-range loss
// rate an event smuggled past the OBSERVE rule) is a bug. An accepted
// snapshot is re-rendered and loaded again: the second load must accept and
// re-render to the same bytes, pinning the render/load inverse a restart
// relies on.
//
// Built two ways (see tests/fuzz/CMakeLists.txt): as a libFuzzer target
// under -DREPRO_FUZZ=ON (Clang), or with the corpus-replay main() under any
// compiler, where it runs as the fuzz_corpus_serve_snapshot ctest.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "serve/path_table.hpp"
#include "serve/snapshot.hpp"
#include "testbed/dataset.hpp"

namespace {

/// The spec list every seed's specs line names.
const std::vector<std::string> k_specs{"fb:pftk", "10-MA"};

/// The table `text` restores into a fresh daemon, rendered; throws
/// dataset_error where load_snapshot refuses it.
std::string restore(const std::string& text) {
    tcppred::serve::path_table table(k_specs);
    std::istringstream in(text);
    (void)tcppred::serve::load_snapshot(table, in, "<fuzz>");
    return tcppred::serve::render_snapshot(table);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    std::string rendered;
    try {
        rendered = restore(std::string(reinterpret_cast<const char*>(data), size));
    } catch (const tcppred::testbed::dataset_error&) {
        return 0;  // the documented rejection path for malformed input
    }
    try {
        if (restore(rendered) != rendered) std::abort();
    } catch (const tcppred::testbed::dataset_error&) {
        std::abort();  // a rendered snapshot must load back
    }
    return 0;
}
