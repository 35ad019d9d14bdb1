// tcppred_serve — the online prediction daemon (DESIGN.md §17): holds live
// per-path predictor state behind the line protocol of serve/protocol.hpp,
// on a Unix-domain or loopback TCP socket.
//
//   tcppred_serve --socket PATH | --port N [options]
//
// Prints "READY <socket|port>" on stdout once listening. SIGINT/SIGTERM is
// the documented stop: drain connections, write the final snapshot (when
// --snapshot is set), exit 0. A daemon restarted with --resume replays the
// snapshot through the live apply path and answers PREDICT requests
// bitwise-identically to the process that wrote it.
//
// Exit codes: 0 success (including signal-driven shutdown), 1 bad
// arguments, 2 runtime failure (malformed flag value, bad predictor spec,
// socket/snapshot errors).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checked_parse.hpp"
#include "core/predictor_registry.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "serve/path_table.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --socket PATH | --port N [options]\n"
                 "  --socket PATH       listen on a Unix-domain socket\n"
                 "  --port N            listen on 127.0.0.1:N (0 = ephemeral;\n"
                 "                      the bound port is printed after READY)\n"
                 "  --specs LIST        comma-separated predictor specs served\n"
                 "                      per path (default fb:pftk)\n"
                 "  --workers N         connection workers (default 4)\n"
                 "  --snapshot FILE     snapshot file (written on SIGINT and on\n"
                 "                      SNAPSHOT requests)\n"
                 "  --snapshot-every N  also snapshot every N observations\n"
                 "                      (default off)\n"
                 "  --resume            replay --snapshot FILE at startup when\n"
                 "                      it exists\n"
                 "  --metrics-summary   print counters to stderr on exit\n",
                 argv0);
}

// Lock-free atomics are async-signal-safe; the handler writes the same flag
// the server's accept loop and connection workers poll every tick.
std::atomic<bool> g_stop{false};
void on_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
    std::string socket_path;
    int port = -1;
    std::string specs_list = "fb:pftk";
    tcppred::serve::server_config scfg;
    bool resume = false;
    bool metrics_summary = false;

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
            if (arg == "--socket") {
                socket_path = next();
            } else if (arg == "--port") {
                port = static_cast<int>(checked_int(0, 65535));
            } else if (arg == "--specs") {
                specs_list = next();
            } else if (arg == "--workers") {
                scfg.workers = static_cast<std::size_t>(checked_int(1, 4096));
            } else if (arg == "--snapshot") {
                scfg.snapshot_file = next();
            } else if (arg == "--snapshot-every") {
                scfg.snapshot_every =
                    static_cast<std::uint64_t>(checked_int(1, 1000000000));
            } else if (arg == "--resume") {
                resume = true;
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

    if (socket_path.empty() && port < 0) {
        std::fprintf(stderr, "need a listen address: --socket PATH or --port N\n");
        usage(argv[0]);
        return 1;
    }
    if (resume && scfg.snapshot_file.empty()) {
        std::fprintf(stderr, "--resume needs --snapshot FILE\n");
        return 1;
    }
    if (scfg.snapshot_every > 0 && scfg.snapshot_file.empty()) {
        std::fprintf(stderr, "--snapshot-every needs --snapshot FILE\n");
        return 1;
    }
    const std::vector<std::string> specs = tcppred::core::split_spec_list(specs_list);
    if (specs.empty()) {
        std::fprintf(stderr, "--specs must name at least one predictor spec\n");
        return 1;
    }

    tcppred::obs::init_from_env();
    if (metrics_summary) tcppred::obs::set_metrics_enabled(true);

    int rc = 0;
    try {
        tcppred::serve::path_table table(specs);
        if (resume && std::filesystem::exists(scfg.snapshot_file)) {
            const tcppred::serve::snapshot_stats st =
                tcppred::serve::load_snapshot(table, scfg.snapshot_file);
            std::fprintf(stderr, "resumed %zu path(s), %llu observation(s) from %s\n",
                         st.paths, static_cast<unsigned long long>(st.events),
                         scfg.snapshot_file.string().c_str());
        }

        scfg.unix_socket = socket_path;
        scfg.tcp_port = port;
        tcppred::serve::server srv(table, scfg);
        std::signal(SIGINT, on_stop_signal);
        std::signal(SIGTERM, on_stop_signal);
        std::signal(SIGPIPE, SIG_IGN);  // client hangups surface as write errors

        if (!socket_path.empty()) {
            std::printf("READY %s\n", socket_path.c_str());
        } else {
            std::printf("READY %d\n", srv.port());
        }
        std::fflush(stdout);

        srv.run(g_stop);

        if (!scfg.snapshot_file.empty()) {
            tcppred::serve::write_snapshot(table, scfg.snapshot_file);
            std::fprintf(stderr, "final snapshot: %s\n",
                         scfg.snapshot_file.string().c_str());
        }
        std::fprintf(stderr, "served %llu observation(s) over %zu path(s)\n",
                     static_cast<unsigned long long>(table.observations()),
                     table.path_count());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        rc = 2;
    }
    if (metrics_summary) tcppred::obs::print_metrics_summary();
    return rc;
}
