// Fig. 12 / §4.2.8: FB RMSRE per path for window-limited (W = 20 KB)
// versus congestion-limited (W = 1 MB) transfers.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "core/fb_formulas.hpp"
#include "core/metrics.hpp"
#include "testbed/campaign.hpp"

using namespace tcppred;
using namespace tcppred::bench;

int main() {
    banner("Fig. 12: FB RMSRE, window-limited (W=20KB) vs congestion-limited (W=1MB)",
           "on every window-limited path the W=20KB transfers predict better, often by a "
           "large factor; 14 of 19 window-limited paths reach RMSRE < 1.0");

    const auto data = testbed::ensure_campaign1();

    analysis::engine_options small_opts;
    small_opts.small_window = true;

    const auto large = analysis::evaluation_engine{}.run_one(data, "fb:pftk");
    const auto small = analysis::evaluation_engine{small_opts}.run_one(data, "fb:pftk");

    // Per-path RMSRE for both variants.
    std::map<int, std::vector<double>> large_err, small_err;
    for (const auto& e : large.all_epochs()) large_err[e.rec->path_id].push_back(e.error);
    for (const auto& e : small.all_epochs()) small_err[e.rec->path_id].push_back(e.error);

    // A path is window-limited when W/T-hat < A-hat on (most of) its epochs.
    std::map<int, int> wl_votes, votes;
    for (const auto& r : data.records) {
        const double w_over_t = static_cast<double>(core::k_companion_window_bytes) * 8 /
                                std::max(r.m.that_s, 1e-6);
        ++votes[r.path_id];
        if (r.m.avail_bw_bps > w_over_t) ++wl_votes[r.path_id];
    }

    std::printf("%-10s %-6s %12s %12s %8s %s\n", "path", "class", "RMSRE W=1MB",
                "RMSRE W=20KB", "ratio", "window-limited?");
    int wl_paths = 0, wl_below_1 = 0, wl_better = 0;
    for (const auto& [path, errs] : large_err) {
        const double r_large = core::rmsre(errs);
        const double r_small = core::rmsre(small_err[path]);
        const bool window_limited = wl_votes[path] * 2 > votes[path];
        const auto& prof = data.profile(path);
        std::printf("%-10s %-6s %12.3f %12.3f %8.2f %s\n", prof.name.c_str(),
                    std::string(testbed::to_string(prof.klass)).c_str(), r_large, r_small,
                    r_small > 0 ? r_large / r_small : 0.0, window_limited ? "yes" : "no");
        if (window_limited) {
            ++wl_paths;
            if (r_small < 1.0) ++wl_below_1;
            if (r_small < r_large) ++wl_better;
        }
    }
    std::printf("\nheadline: %d window-limited paths (paper: 19/35); window-limited "
                "RMSRE lower on %d of them; RMSRE < 1.0 on %d (paper: 14/19)\n",
                wl_paths, wl_better, wl_below_1);
    return 0;
}
