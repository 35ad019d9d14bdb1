// The campaign fingerprint covers exactly what a caller can set
// (testbed/checkpoint.hpp, DESIGN.md §10.4): changing any value that reaches
// a record changes the fingerprint and the mismatch report names its slot,
// and each value left out of it leaves every record bitwise unchanged.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "net/cross_traffic.hpp"
#include "tcp/tcp.hpp"
#include "testbed/campaign.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::testbed {
namespace {

/// The 2 x 1 x 3 campaign every case starts from.
campaign_config base_config() {
    campaign_config cfg;
    cfg.paths = 2;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 3;
    cfg.jobs = 1;
    cfg.epoch.warmup = core::seconds{0.5};
    cfg.epoch.prior_ping.count = 60;
    cfg.epoch.transfer = core::seconds{1.5};
    return cfg;
}

struct change {
    const char* slot;  ///< the fingerprint field the change must be named by
    std::function<void(campaign_config&)> apply;
};

/// One change per value a caller can set that reaches a record.
const std::vector<change>& covered_changes() {
    static const std::vector<change> k{
        {"paths", [](campaign_config& c) { c.paths = 3; }},
        {"traces_per_path", [](campaign_config& c) { c.traces_per_path = 2; }},
        {"epochs_per_trace", [](campaign_config& c) { c.epochs_per_trace = 4; }},
        {"seed", [](campaign_config& c) { c.seed = 7; }},
        {"second_set", [](campaign_config& c) { c.second_set = true; }},
        {"faults", [](campaign_config& c) { c.faults.pathload_fail = 0.1; }},
        {"faults", [](campaign_config& c) { c.faults.ping_timeout_rate = 0.1; }},
        {"faults", [](campaign_config& c) { c.faults.ping_truncate = 0.1; }},
        {"faults", [](campaign_config& c) { c.faults.transfer_abort = 0.1; }},
        {"faults", [](campaign_config& c) { c.faults.outage = 0.1; }},
        {"epoch.warmup_s", [](campaign_config& c) { c.epoch.warmup = core::seconds{1.0}; }},
        {"epoch.prior_ping.count", [](campaign_config& c) { c.epoch.prior_ping.count = 80; }},
        {"epoch.prior_ping.interval_s",
         [](campaign_config& c) { c.epoch.prior_ping.interval = core::seconds{0.02}; }},
        {"epoch.transfer_s", [](campaign_config& c) { c.epoch.transfer = core::seconds{2.0}; }},
        {"epoch.run_small_window", [](campaign_config& c) { c.epoch.run_small_window = false; }},
        {"epoch.run_pathload", [](campaign_config& c) { c.epoch.run_pathload = false; }},
        {"epoch.prefix_s[0]", [](campaign_config& c) { c.epoch.prefix_s = {0.75}; }},
        {"epoch.cross", [](campaign_config& c) { c.epoch.cross = net::cross_model::fluid; }},
        {"epoch.tcp.variant",
         [](campaign_config& c) { c.epoch.tcp.variant = tcp::tcp_variant::newreno; }},
        {"epoch.tcp.initial_ssthresh_segments",
         [](campaign_config& c) { c.epoch.tcp.initial_ssthresh_segments = 0; }},
        {"epoch.tcp.max_rto_backoff", [](campaign_config& c) { c.epoch.tcp.max_rto_backoff = 6; }},
        {"epoch.tcp.delayed_ack", [](campaign_config& c) { c.epoch.tcp.delayed_ack = false; }},
    };
    return k;
}

TEST(fingerprint_coverage, every_settable_value_changes_the_fingerprint) {
    const campaign_config base = base_config();
    const std::string fp = campaign_fingerprint(base);
    for (const change& ch : covered_changes()) {
        campaign_config c = base;
        ch.apply(c);
        const std::string changed = campaign_fingerprint(c);
        EXPECT_NE(changed, fp) << ch.slot;
        EXPECT_NE(describe_fingerprint_mismatch(fp, changed).find(std::string("\n  ") +
                                                                  ch.slot + ": "),
                  std::string::npos)
            << ch.slot << ":" << describe_fingerprint_mismatch(fp, changed);
    }
}

TEST(fingerprint_coverage, fault_seed_counts_once_a_fault_is_on) {
    // With every rate at zero no fault is drawn, so the seed reaches no
    // record; with one on, it places the faults.
    campaign_config faulted = base_config();
    faulted.faults.pathload_fail = 0.1;
    campaign_config reseeded = faulted;
    reseeded.faults.seed = 99;
    EXPECT_NE(campaign_fingerprint(reseeded), campaign_fingerprint(faulted));
}

/// Every field of every record, doubles as hexfloat: equal strings are
/// bitwise-equal records.
std::string render(const dataset& data) {
    std::string out;
    const auto num = [&](double v) {
        out += hexd(v);
        out += ',';
    };
    for (const epoch_record& r : data.records) {
        out += std::to_string(r.path_id) + ',' + std::to_string(r.trace_id) + ',' +
               std::to_string(r.epoch_index) + ',';
        const epoch_measurement& m = r.m;
        for (const measured_field& mf : k_measured_fields) num(m.*mf.member);
        for (const auto& [prefix, bps] : m.prefix_goodputs) {
            num(prefix);
            num(bps);
        }
        out += std::to_string(m.events) + ',' + std::to_string(m.fault_flags) + '\n';
    }
    return out;
}

TEST(fingerprint_coverage, values_left_out_leave_every_record_unchanged) {
    const campaign_config base = base_config();
    const std::string fp = campaign_fingerprint(base);
    const std::string records = render(run_campaign(base));
    const std::vector<change> left_out{
        {"jobs", [](campaign_config& c) { c.jobs = 2; }},
        // Each transfer sets its own window.
        {"epoch.tcp.max_window_bytes",
         [](campaign_config& c) { c.epoch.tcp.max_window_bytes = 64 * 1024; }},
    };
    for (const change& ch : left_out) {
        campaign_config c = base;
        ch.apply(c);
        EXPECT_EQ(campaign_fingerprint(c), fp) << ch.slot;
        EXPECT_EQ(render(run_campaign(c)), records) << ch.slot;
    }
}

TEST(fingerprint_coverage, another_version_is_named_alone) {
    // A v3 fingerprint (another slot layout) of the base grid: only the
    // version is reported, not slots that no longer line up.
    const std::string v3 =
        "v3|3|2|1|3|20040501|0|off|0x1p+1|0x1.8p+0|0x1.eb851eb851eb8p-7|1048576|20480|1|1|"
        "400|0x1.eb851eb851eb8p-7|0x1.4cccccccccccdp+0|0x1.ep+7|packet";
    campaign_config cfg;
    cfg.paths = 2;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 3;
    cfg.epoch.transfer = core::seconds{1.5};
    EXPECT_EQ(describe_fingerprint_mismatch(v3, campaign_fingerprint(cfg)),
              "\n  version: store=v3 requested=v4");
}

}  // namespace
}  // namespace tcppred::testbed
