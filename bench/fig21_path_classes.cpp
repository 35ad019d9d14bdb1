// Fig. 21 / §6.1.4: 12 sample paths grouped into four predictability
// classes, with the per-trace RMSRE of 1-MA, 10-MA, HW and HW-LSO.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 21: path predictability classes",
           "(a) predictable paths (low RMSRE), (b) small and stable errors, (c) small "
           "but unstable errors across traces, (d) unpredictable paths (high RMSRE); "
           "HW-LSO is almost always the best of the four predictors");

    const auto data = testbed::ensure_campaign1();

    const std::vector<std::string> specs{"1-MA", "10-MA", "0.8-HW", "0.8-HW-LSO"};
    const auto results = run_predictors(data, specs);
    // rmsre[path][trace][spec], NaN where that spec left the trace unscored.
    std::map<int, std::map<int, std::vector<double>>> rmsre;
    for (std::size_t s = 0; s < results.size(); ++s) {
        for (const auto& t : results[s].traces) {
            auto& cells = rmsre[t.path_id][t.trace_id];
            cells.resize(specs.size(), std::nan(""));
            cells[s] = t.rmsre;
        }
    }

    // Classify each path by mean and spread of its HW-LSO trace RMSREs.
    auto rows = analysis::classify_paths(analysis::summarize(results.back(), false));
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.mean < b.mean; });

    // Print 12 sample paths spread across the sorted order.
    std::printf("%-10s %-20s", "path", "class");
    for (const auto& s : specs) std::printf(" %10s", s.c_str());
    std::printf("   (RMSRE per trace, first trace shown per cell)\n");
    const std::size_t step = std::max<std::size_t>(1, rows.size() / 12);
    for (std::size_t i = 0; i < rows.size(); i += step) {
        const auto& r = rows[i];
        const auto& prof = data.profile(r.path_id);
        for (const auto& [trace, vals] : rmsre[r.path_id]) {
            std::printf("%-10s %c: %-17s", prof.name.c_str(), 'a' + static_cast<int>(r.klass),
                        analysis::to_string(r.klass));
            for (const double v : vals) std::printf(" %10.3f", v);
            std::printf("   trace %d\n", trace);
        }
    }

    std::array<int, 4> sizes{};
    for (const auto& r : rows) ++sizes[static_cast<std::size_t>(r.klass)];
    std::printf("\nheadline: class sizes over %zu paths: predictable=%d stable=%d "
                "unstable=%d unpredictable=%d (paper: all four classes occur)\n",
                rows.size(), sizes[0], sizes[1], sizes[2], sizes[3]);
    return 0;
}
