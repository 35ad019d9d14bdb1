// tcppred_loadgen — replay a campaign record store against a running
// tcppred_serve daemon, and/or compute the offline reference with
// analysis::evaluation_engine — the equivalence harness for the serve layer
// (DESIGN.md §17).
//
// Each (path, trace) series of the store is replayed as daemon path
// "p<path>.t<trace>" in sorted trace order (the order dataset::traces()
// walks): per epoch one OBSERVE, then one PREDICT per spec. Emitted
// prediction lines
//
//   pred,<spec>,<path>,<trace>,<epoch>,<hexfloat forecast>
//
// apply the engine's scoring filter (usable forecast, real positive actual,
// trace at least min_trace_length epochs), so `--out` from a live replay is
// byte-identical to `--offline` from the engine over the same records —
// cmp(1) is the whole equivalence check. --start/--count replay a trace
// range, so a SIGINT-snapshot-restart split replay concatenates to the
// uninterrupted output.
//
// Exit codes: 0 success, 1 bad arguments, 2 runtime failure (daemon
// unreachable, protocol error, malformed store, bad spec).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/evaluation.hpp"
#include "core/checked_parse.hpp"
#include "core/predictor_registry.hpp"
#include "obs/stopwatch.hpp"
#include "serve/protocol.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"
#include "testbed/record_store.hpp"

using namespace tcppred;

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --from-store FILE [options]\n"
                 "  --from-store FILE  campaign record store to replay (required)\n"
                 "  --socket PATH      daemon Unix socket to replay against\n"
                 "  --port N           daemon TCP port on 127.0.0.1\n"
                 "  --specs LIST       comma-separated predictor specs; must match\n"
                 "                     the daemon's --specs (default fb:pftk)\n"
                 "  --out FILE         write live prediction lines here\n"
                 "  --offline FILE     write the offline engine's prediction lines\n"
                 "                     (no daemon needed when --socket/--port are\n"
                 "                     absent)\n"
                 "  --start N          first trace (sorted order) to replay\n"
                 "  --count N          number of traces to replay (default: rest)\n",
                 argv0);
}

/// A blocking line-oriented client connection to the daemon.
class client {
public:
    client(const std::string& unix_path, int port) {
        if (!unix_path.empty()) {
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            if (unix_path.size() >= sizeof(addr.sun_path)) {
                throw std::runtime_error("socket path too long: " + unix_path);
            }
            std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                                     sizeof(addr)) != 0) {
                throw std::runtime_error("cannot connect to " + unix_path + ": " +
                                         std::strerror(errno));
            }
        } else {
            fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port = htons(static_cast<std::uint16_t>(port));
            if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                                     sizeof(addr)) != 0) {
                throw std::runtime_error("cannot connect to 127.0.0.1:" +
                                         std::to_string(port) + ": " +
                                         std::strerror(errno));
            }
        }
    }
    ~client() {
        if (fd_ >= 0) ::close(fd_);
    }
    client(const client&) = delete;
    client& operator=(const client&) = delete;

    /// Send one request line, return the one response line (no newline).
    std::string roundtrip(const std::string& line) {
        std::string msg = line;
        msg += '\n';
        const char* p = msg.data();
        std::size_t left = msg.size();
        while (left > 0) {
            const ssize_t n = ::write(fd_, p, left);
            if (n < 0) {
                if (errno == EINTR) continue;
                throw std::runtime_error(std::string("daemon write failed: ") +
                                         std::strerror(errno));
            }
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        while (true) {
            const std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string resp = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return resp;
            }
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR) continue;
                throw std::runtime_error(std::string("daemon read failed: ") +
                                         std::strerror(errno));
            }
            if (n == 0) throw std::runtime_error("daemon closed the connection");
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_{-1};
    std::string buf_;
};

std::vector<std::string> split_ws(const std::string& line) {
    std::vector<std::string> toks;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && line[i] == ' ') ++i;
        const std::size_t start = i;
        while (i < line.size() && line[i] != ' ') ++i;
        if (i > start) toks.push_back(line.substr(start, i - start));
    }
    return toks;
}

/// One emitted prediction line; the shared format of --out and --offline.
void emit_pred(std::ostream& out, const std::string& spec_name, int path_id,
               int trace_id, int epoch_index, const std::string& hex_value) {
    out << "pred," << spec_name << ',' << path_id << ',' << trace_id << ','
        << epoch_index << ',' << hex_value << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    std::string store_file;
    std::string socket_path;
    int port = -1;
    std::string specs_list = "fb:pftk";
    std::string out_file;
    std::string offline_file;
    std::size_t start_trace = 0;
    std::int64_t count_traces = -1;

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
                return core::parse_checked_int(arg, next(), min, max);
            };
            if (arg == "--from-store") {
                store_file = next();
            } else if (arg == "--socket") {
                socket_path = next();
            } else if (arg == "--port") {
                port = static_cast<int>(checked_int(1, 65535));
            } else if (arg == "--specs") {
                specs_list = next();
            } else if (arg == "--out") {
                out_file = next();
            } else if (arg == "--offline") {
                offline_file = next();
            } else if (arg == "--start") {
                start_trace = static_cast<std::size_t>(checked_int(0, 1000000000));
            } else if (arg == "--count") {
                count_traces = checked_int(0, 1000000000);
            } else if (arg == "--help" || arg == "-h") {
                usage(argv[0]);
                return 0;
            } else {
                std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
                usage(argv[0]);
                return 1;
            }
        }
    } catch (const core::parse_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0]);
        return 2;
    }

    if (store_file.empty()) {
        usage(argv[0]);
        return 1;
    }
    const bool live = !socket_path.empty() || port > 0;
    if (!live && offline_file.empty()) {
        std::fprintf(stderr,
                     "nothing to do: need --socket/--port (live replay) and/or "
                     "--offline FILE\n");
        return 1;
    }
    const std::vector<std::string> specs = core::split_spec_list(specs_list);
    if (specs.empty()) {
        std::fprintf(stderr, "--specs must name at least one predictor spec\n");
        return 1;
    }

    try {
        // Canonical spec names and scoring thresholds, before any I/O.
        std::vector<std::string> names;
        std::vector<std::size_t> min_len;
        for (const std::string& s : specs) {
            const auto p = core::make_predictor(s);
            names.push_back(p->name());
            min_len.push_back(p->min_trace_length());
        }

        // Load the store into memory grouped per (path, trace); the
        // replay's stores are campaign-sized test fixtures, not the
        // past-RAM datasets the streamed evaluation path serves.
        testbed::dataset data;
        {
            testbed::record_reader reader(store_file);
            testbed::epoch_record rec;
            while (reader.next(rec)) data.records.push_back(rec);
        }
        const auto traces = data.traces();
        std::vector<std::pair<int, int>> keys;
        keys.reserve(traces.size());
        for (const auto& [key, recs] : traces) keys.push_back(key);
        const std::size_t end_trace =
            count_traces < 0
                ? keys.size()
                : std::min(keys.size(),
                           start_trace + static_cast<std::size_t>(count_traces));
        if (start_trace > keys.size()) {
            std::fprintf(stderr, "--start %zu is past the last trace (%zu)\n",
                         start_trace, keys.size());
            return 1;
        }

        // --- offline reference: the engine over the full store ------------
        if (!offline_file.empty()) {
            const analysis::evaluation_engine engine;
            const std::vector<analysis::predictor_result> results =
                engine.run(data, specs);
            // (path, trace) -> per-spec scored epochs, for sorted emission.
            std::vector<std::map<std::pair<int, int>, const analysis::trace_result*>>
                by_trace(specs.size());
            for (std::size_t j = 0; j < results.size(); ++j) {
                for (const analysis::trace_result& tr : results[j].traces) {
                    by_trace[j].emplace(std::make_pair(tr.path_id, tr.trace_id), &tr);
                }
            }
            std::ofstream out(offline_file);
            if (!out) throw std::runtime_error("cannot write " + offline_file);
            for (const auto& key : keys) {
                const std::size_t epochs = traces.at(key).size();
                // Per-spec cursor into the trace's scored epochs (ascending
                // walk index), merged epoch-major / spec-minor.
                std::vector<std::size_t> cursor(specs.size(), 0);
                for (std::size_t i = 0; i < epochs; ++i) {
                    for (std::size_t j = 0; j < specs.size(); ++j) {
                        const auto it = by_trace[j].find(key);
                        if (it == by_trace[j].end()) continue;
                        const auto& scored = it->second->epochs;
                        if (cursor[j] < scored.size() && scored[cursor[j]].index == i) {
                            const analysis::epoch_score& sc = scored[cursor[j]];
                            emit_pred(out, names[j], key.first, key.second,
                                      sc.rec->epoch_index,
                                      testbed::hexd(sc.predicted_bps));
                            ++cursor[j];
                        }
                    }
                }
            }
            std::fprintf(stderr, "offline reference written to %s\n",
                         offline_file.c_str());
        }

        // --- live replay ---------------------------------------------------
        if (live) {
            client conn(socket_path, port);
            std::unique_ptr<std::ofstream> out;
            if (!out_file.empty()) {
                out = std::make_unique<std::ofstream>(out_file);
                if (!*out) throw std::runtime_error("cannot write " + out_file);
            }
            std::uint64_t observations = 0;
            std::uint64_t predictions = 0;
            const obs::stopwatch wall;
            for (std::size_t t = start_trace; t < end_trace; ++t) {
                const auto& key = keys[t];
                const auto& recs = traces.at(key);
                const std::string path_key = "p" + std::to_string(key.first) + ".t" +
                                             std::to_string(key.second);
                for (const testbed::epoch_record* rec : recs) {
                    serve::observation ev;
                    ev.epoch = rec->epoch_index;
                    ev.avail_bw_bps = rec->m.avail_bw_bps;
                    ev.phat = rec->m.phat;
                    ev.phat_events = rec->m.phat_events;
                    ev.that_s = rec->m.that_s;
                    ev.r_large_bps = rec->m.r_large_bps;
                    ev.fault_flags = rec->m.fault_flags;
                    const std::string resp =
                        conn.roundtrip(serve::format_observe(path_key, ev));
                    if (resp != "OK") {
                        throw std::runtime_error("OBSERVE rejected: " + resp);
                    }
                    ++observations;

                    // The engine's per-epoch actual (default options view).
                    const double actual =
                        analysis::view_of_record(*rec).actual_bps;
                    for (std::size_t j = 0; j < specs.size(); ++j) {
                        const std::string presp = conn.roundtrip(
                            "PREDICT " + path_key + " " + specs[j]);
                        ++predictions;
                        const std::vector<std::string> f = split_ws(presp);
                        if (f.size() != 6 || f[0] != "OK") {
                            throw std::runtime_error("PREDICT failed: " + presp);
                        }
                        // The engine's scoring filter + short-trace
                        // omission; f[2] is the status.
                        if (out && recs.size() >= min_len[j] &&
                            analysis::scorable(f[2] == "ok", actual)) {
                            emit_pred(*out, names[j], key.first, key.second,
                                      rec->epoch_index, f[1]);
                        }
                    }
                }
            }
            const double wall_s = wall.elapsed_s();
            std::fprintf(stderr,
                         "replayed %llu observation(s), %llu prediction(s) in %.2f s "
                         "(%.1f predictions/s)\n",
                         static_cast<unsigned long long>(observations),
                         static_cast<unsigned long long>(predictions), wall_s,
                         wall_s > 0 ? static_cast<double>(predictions) / wall_s : 0.0);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    return 0;
}
