// tcppred_campaign — run a measurement campaign from the command line and
// write the dataset as a CSV or a record store. The operational entry point
// for producing new datasets without writing C++.
//
//   tcppred_campaign --out data/my.csv [--paths N] [--traces N]
//                    [--epochs N] [--seed S] [--transfer-s T] [--second-set]
//                    [--jobs N] [--faults SPEC] [--checkpoint-every N]
//                    [--resume] [--format csv|store] [--trace FILE]
//                    [--metrics-summary]
//
// Every run streams its records into a record store (DESIGN.md §16): FILE
// itself under --format store, or for a CSV the staging store FILE.store,
// which is exported to FILE with the --convert code and then removed. The
// resume journal is an unfinished store that a complete run finishes.
// Crash recovery on one host is --jobs N plus --resume: rerun the same
// command after a kill and it finishes the journal to the bytes of an
// uninterrupted run. Across hosts (DESIGN.md §15), --shard i/N runs one
// shard (its product is the shard journal, not a CSV) and --merge N merges
// the shard journals into a store, exported as above for a CSV.
// $REPRO_CHAOS (e.g. kill=0.05) makes a run SIGKILL itself on a seeded
// schedule so that recovery is testable.
//
// Exit codes: 0 success, 1 bad arguments, 2 runtime failure,
// 130 interrupted (SIGINT; progress is checkpointed when enabled).
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/checked_parse.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "sim/chaos.hpp"
#include "sim/fault_injector.hpp"
#include "testbed/campaign.hpp"
#include "testbed/record_store.hpp"
#include "testbed/shard.hpp"

using namespace tcppred::testbed;

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --out FILE [options]\n"
                 "  --out FILE        output CSV (required)\n"
                 "  --paths N         number of paths        (default 35)\n"
                 "  --traces N        traces per path        (default 2)\n"
                 "  --epochs N        epochs per trace       (default 120)\n"
                 "  --seed S          campaign seed          (default 20040501)\n"
                 "  --transfer-s T    target transfer length (default 10)\n"
                 "  --second-set      use the campaign-2 catalogue & plan\n"
                 "  --cross-model M   open-loop cross-traffic model: packet (exact,\n"
                 "                    default) or fluid (aggregate rate, no cross\n"
                 "                    packets)\n"
                 "  --jobs N          worker threads; 1 = serial\n"
                 "                    (default $REPRO_JOBS, else all cores)\n"
                 "  --faults SPEC     measurement-fault rates, e.g.\n"
                 "                    pathload=0.1,ping-timeout=0.02,abort=0.05\n"
                 "                    (keys: pathload, ping-timeout, ping-truncate,\n"
                 "                    abort, outage, seed; default off)\n"
                 "  --checkpoint-every N  append the epochs finished since the\n"
                 "                    last flush to the resume journal FILE.ckpt\n"
                 "                    every N epochs (default 32 once\n"
                 "                    checkpointing is on; SIGINT also flushes);\n"
                 "                    either --format\n"
                 "  --resume          resume from the journal FILE.ckpt if\n"
                 "                    present (at any --jobs; either --format);\n"
                 "                    after a crash, rerun the same command\n"
                 "  --shard i/N       run only shard i of N; writes the shard\n"
                 "                    journal FILE.shard-i-of-N.ckpt, no CSV\n"
                 "                    (not with --format store)\n"
                 "  --merge N         merge shard journals 0..N-1 into FILE, in\n"
                 "                    either --format\n"
                 "  --format F        output format: csv (default) or store (the\n"
                 "                    record store, DESIGN.md §16). Epochs always\n"
                 "                    stream to a store on disk; a csv run exports\n"
                 "                    its staging store FILE.store and removes it\n"
                 "  --convert STORE   convert a finished record store to the CSV\n"
                 "                    at --out (streaming; byte-identical to a CSV\n"
                 "                    run of the same config; no campaign is run)\n"
                 "  --trace FILE      write a JSONL run trace (also $REPRO_TRACE;\n"
                 "                    off by default, zero hot-path cost when off)\n"
                 "  --metrics-summary print counters and stage timings to stderr\n"
                 "                    on exit (also $REPRO_METRICS=1)\n",
                 argv0);
}

// SIGINT: stop claiming epochs; the run flushes the journal and the tool
// exits 130. sig_atomic_t keeps the handler async-signal-safe.
volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
    campaign_config cfg;
    campaign_run_options run_opts;
    std::string out;
    int jobs = 0;  // applied after parsing so --second-set cannot reset it
    // Applied after parsing for the same reason: --second-set replaces cfg.
    std::string cross_model_name;
    bool checkpointing = false;
    bool metrics_summary = false;
    std::string trace_file;
    int merge_n = 0;             // > 0 = merge mode
    std::string format = "csv";
    std::string convert_from;    // non-empty = convert mode
    std::optional<shard_ref> shard;  // set = shard mode
    tcppred::sim::fault_profile faults;
    tcppred::sim::chaos_profile chaos;
    int chaos_attempt = 0;
    try {
        chaos = tcppred::sim::chaos_profile::from_env();
        // Read eagerly: a garbled $REPRO_CHAOS_ATTEMPT must fail here with
        // $REPRO_CHAOS, not throw mid-campaign.
        chaos_attempt = tcppred::sim::chaos_attempt_from_env();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bad chaos environment: %s\n", e.what());
        return 1;
    }

    // Numeric flag values go through core::parse_checked_* (one shared
    // strict parser): "--paths foo" or "--epochs 12x" is a typed
    // parse_error naming the flag, mapped to exit 2 below — the same
    // contract as a bad predictor spec — never a silent atoi() zero.
    try {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        const auto checked_int = [&](std::int64_t min, std::int64_t max) {
            return tcppred::core::parse_checked_int(arg, next(), min, max);
        };
        if (arg == "--out") {
            out = next();
        } else if (arg == "--paths") {
            cfg.paths = static_cast<int>(checked_int(1, 1000000));
        } else if (arg == "--traces") {
            cfg.traces_per_path = static_cast<int>(checked_int(1, 1000000));
        } else if (arg == "--epochs") {
            cfg.epochs_per_trace = static_cast<int>(checked_int(1, 1000000000));
        } else if (arg == "--seed") {
            cfg.seed = tcppred::core::parse_checked_u64(arg, next(), 0, UINT64_MAX);
        } else if (arg == "--transfer-s") {
            cfg.epoch.transfer = tcppred::core::seconds{
                tcppred::core::parse_checked_double(arg, next(), 1e-9, 1e9)};
        } else if (arg == "--second-set") {
            cfg = campaign2_config(campaign_scale::normal);
        } else if (arg == "--cross-model") {
            cross_model_name = next();
        } else if (arg == "--jobs") {
            jobs = static_cast<int>(checked_int(0, 4096));  // 0 = auto
        } else if (arg == "--faults") {
            try {
                faults = tcppred::sim::fault_profile::parse(next());
            } catch (const std::exception& e) {
                std::fprintf(stderr, "bad --faults spec: %s\n", e.what());
                return 1;
            }
        } else if (arg == "--checkpoint-every") {
            run_opts.checkpoint_every = static_cast<int>(checked_int(1, 1000000000));
            checkpointing = true;
        } else if (arg == "--resume") {
            run_opts.resume = true;
            checkpointing = true;
        } else if (arg == "--shard") {
            const char* spec = next();
            shard = parse_shard(spec);
            if (!shard) {
                std::fprintf(stderr, "bad --shard spec: %s (want i/N with 0 <= i < N)\n",
                             spec);
                return 1;
            }
        } else if (arg == "--merge") {
            merge_n = static_cast<int>(checked_int(1, 1000000));
        } else if (arg == "--format") {
            format = next();
        } else if (arg == "--convert") {
            convert_from = next();
        } else if (arg == "--trace") {
            trace_file = next();
        } else if (arg == "--metrics-summary") {
            metrics_summary = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }
    } catch (const tcppred::core::parse_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0]);
        return 2;
    }
    if (out.empty() || cfg.paths <= 0 || cfg.traces_per_path <= 0 ||
        cfg.epochs_per_trace <= 0) {
        usage(argv[0]);
        return 1;
    }
    // Progress and outcomes count epochs in int: refuse a grid past INT_MAX
    // before anything sizes or sweeps it.
    if (campaign_total_epochs(cfg) > static_cast<std::size_t>(INT_MAX)) {
        std::fprintf(stderr,
                     "grid too large: --paths %d x --traces %d x --epochs %d = %zu "
                     "epochs (at most %d)\n",
                     cfg.paths, cfg.traces_per_path, cfg.epochs_per_trace,
                     campaign_total_epochs(cfg), INT_MAX);
        return 1;
    }
    cfg.jobs = jobs;
    cfg.faults = faults;
    if (!cross_model_name.empty()) {
        if (cross_model_name == "packet") {
            cfg.epoch.cross = tcppred::net::cross_model::packet;
        } else if (cross_model_name == "fluid") {
            cfg.epoch.cross = tcppred::net::cross_model::fluid;
        } else {
            std::fprintf(stderr, "bad --cross-model: %s (want packet or fluid)\n",
                         cross_model_name.c_str());
            return 1;
        }
    }
    if (merge_n > 0 && shard) {
        std::fprintf(stderr, "--shard and --merge are mutually exclusive\n");
        return 1;
    }
    if (format != "csv" && format != "store") {
        std::fprintf(stderr, "bad --format: %s (want csv or store)\n", format.c_str());
        return 1;
    }
    const bool store_mode = format == "store";
    if (!convert_from.empty() && (merge_n > 0 || shard || checkpointing)) {
        std::fprintf(stderr,
                     "--convert is a standalone mode (no campaign/shard/merge flags)\n");
        return 1;
    }
    if (store_mode && shard) {
        std::fprintf(stderr,
                     "--shard writes a shard checkpoint, not a store; use --format "
                     "store on the --merge side\n");
        return 1;
    }
    if (checkpointing) run_opts.checkpoint = out + ".ckpt";
    if (shard) {
        // Shard mode: claim only our slice. A filtered run keeps its
        // journal, which is the shard's product (the merge step consumes it).
        run_opts.epoch_filter = shard_filter(*shard);
        run_opts.checkpoint = shard_checkpoint_path(out, *shard);
        checkpointing = true;
    }
    // The store every run streams into; a CSV is exported from it.
    const std::filesystem::path store = store_mode ? std::filesystem::path(out)
                                                   : csv_staging_store(out);
    const auto publish = [&] {
        if (!store_mode) export_store_to_csv(store, out);
    };
    if (chaos.enabled() && merge_n == 0) {
        // Process-level chaos (sim/chaos.hpp): SIGKILL ourselves just before
        // a planned epoch. Checkpoint every epoch so each attempt's progress
        // survives its planned crash — that is what makes a --resume rerun
        // loop converge instead of looping.
        if (checkpointing) run_opts.checkpoint_every = 1;
        run_opts.epoch_hook = [chaos, seed = cfg.seed,
                               attempt = chaos_attempt](std::size_t idx) {
            if (tcppred::sim::plan_chaos_kill(chaos, seed, attempt, idx)) std::raise(SIGKILL);
        };
    }
    run_opts.cancelled = [] { return g_interrupted != 0; };
    std::signal(SIGINT, on_sigint);

    // --trace opens first so init_from_env() skips $REPRO_TRACE (the flag
    // overrides the environment, with no stray env-named file).
    if (!trace_file.empty()) {
        try {
            tcppred::obs::trace_writer::instance().open(trace_file);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    tcppred::obs::init_from_env();
    if (metrics_summary) tcppred::obs::set_metrics_enabled(true);
    // Runs on every exit path (success, SIGINT, runtime failure): the
    // summary covers whatever work completed, and close() surfaces a failed
    // trace write that would otherwise vanish with the process.
    const auto finish_observability = [&]() -> int {
        if (metrics_summary) tcppred::obs::print_metrics_summary();
        if (!trace_file.empty()) {
            try {
                tcppred::obs::trace_writer::instance().close();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
        }
        return 0;
    };

    try {
        if (!convert_from.empty()) {
            record_reader reader(convert_from);
            const std::size_t n = reader.total();
            store_to_csv(reader, out);
            std::fprintf(stderr, "converted %zu epoch records from %s to %s\n", n,
                         convert_from.c_str(), out.c_str());
            return finish_observability();
        }

        if (merge_n > 0) {
            // Merge mode: read-only over the shard checkpoints (rerunnable).
            std::vector<std::filesystem::path> ckpts;
            for (int i = 0; i < merge_n; ++i) {
                ckpts.push_back(shard_checkpoint_path(out, shard_ref{i, merge_n}));
            }
            const std::size_t merged = merge_shard_checkpoints_to_store(cfg, ckpts, store);
            publish();
            std::fprintf(stderr, "merged %d shard(s), %zu epoch records, into %s\n",
                         merge_n, merged, out.c_str());
            return finish_observability();
        }

        std::fprintf(stderr, "running %d paths x %d traces x %d epochs (seed %llu%s%s%s)...\n",
                     cfg.paths, cfg.traces_per_path, cfg.epochs_per_trace,
                     static_cast<unsigned long long>(cfg.seed),
                     cfg.faults.enabled()
                         ? (", faults " + cfg.faults.spec()).c_str()
                         : "",
                     chaos.enabled() ? (", chaos " + chaos.spec()).c_str() : "",
                     shard ? (", shard " + std::to_string(shard->index) + "/" +
                              std::to_string(shard->count))
                                 .c_str()
                           : "");
        const int total_epochs = static_cast<int>(campaign_total_epochs(cfg));
        const int claimed =
            shard ? static_cast<int>(
                        shard_size(static_cast<std::size_t>(total_epochs), *shard))
                  : total_epochs;
        int last = -1;
        const progress_fn on_progress = [&](int done, int) {
            const int pct = progress_percent(done, claimed);
            if (pct / 10 != last / 10) {
                std::fprintf(stderr, "  %d%%\n", pct);
                last = pct;
            }
        };
        // Records stream to disk; nothing grid-sized is resident.
        const tcppred::obs::stopwatch watch;
        const campaign_outcome outcome = run_campaign_streamed(
            cfg, shard ? std::filesystem::path{} : store, run_opts, on_progress);
        const double wall_s = watch.elapsed_s();
        if (outcome.epochs_resumed > 0) {
            std::fprintf(stderr, "resumed %d completed epoch(s) from %s\n",
                         outcome.epochs_resumed, run_opts.checkpoint.string().c_str());
        }
        if (!outcome.complete) {
            std::fprintf(stderr,
                         "interrupted after %d epoch(s)%s%s; rerun with --resume\n",
                         outcome.epochs_completed,
                         checkpointing ? "; progress saved to " : "",
                         checkpointing ? run_opts.checkpoint.string().c_str() : "");
            finish_observability();  // partial summary/trace is still useful
            return 130;
        }
        if (shard) {
            // A shard's output is its checkpoint; only the merge step
            // writes the CSV.
            std::fprintf(stderr, "shard %d/%d complete: %d epoch(s) in %s\n",
                         shard->index, shard->count, outcome.epochs_completed,
                         run_opts.checkpoint.string().c_str());
            return finish_observability();
        }
        publish();
        const auto n = static_cast<std::size_t>(total_epochs);
        std::fprintf(stderr, "wrote %zu epoch records to %s\n", n, out.c_str());
        std::fprintf(stderr, "%zu epochs in %.2f s (%.1f epochs/s)\n", n, wall_s,
                     wall_s > 0 ? static_cast<double>(n) / wall_s : 0.0);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        finish_observability();
        return 2;
    }
    return finish_observability();
}
