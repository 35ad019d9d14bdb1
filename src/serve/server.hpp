// The serve daemon's socket front-end: a listening Unix-domain or loopback
// TCP socket, a bounded admission queue, and a fixed worker pool
// (sim::thread_pool) where each worker owns one client connection at a time
// — so one connection's requests apply strictly in arrival order, which is
// what makes a replayed observation stream reproduce the offline engine
// (path_table.hpp).
//
// Shutdown contract: run() polls `stop` (set by the tool's SIGINT handler);
// once raised, the listener closes, workers finish the line in flight and
// hang up, and run() returns after the pool drains — the tool then writes
// the final snapshot and exits 0. Snapshots are also written every
// --snapshot-every observations (count-based, so WHEN one is cut is a
// function of the workload, not the clock) and on the SNAPSHOT request.
// A failed SNAPSHOT answers "ERR snapshot failed: <reason>" and the
// connection keeps serving; a failed periodic snapshot leaves its OBSERVE
// answered OK (the observation is applied) and is reported on stderr and
// in the serve.snapshot_failures counter.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>

#include "serve/path_table.hpp"

namespace tcppred::serve {

struct server_config {
    /// Unix-domain socket path; takes precedence over tcp_port when set.
    std::string unix_socket;
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
    int tcp_port{-1};
    std::size_t workers{4};
    /// Bound on connections admitted but not yet finished; the accept loop
    /// stops accepting (backpressure) at the cap instead of queueing
    /// without limit.
    std::size_t max_inflight{64};
    /// Write a snapshot every N observations (0 = only on SNAPSHOT/SIGINT).
    std::uint64_t snapshot_every{0};
    /// Snapshot file; empty disables snapshotting entirely.
    std::filesystem::path snapshot_file;
};

class server {
public:
    /// Binds and listens; throws std::runtime_error on any socket failure.
    server(path_table& table, server_config cfg);
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Accept/serve until `stop` becomes true; returns once every admitted
    /// connection has been handled. Callable once.
    void run(const std::atomic<bool>& stop);

    /// The bound TCP port (resolved when tcp_port was 0); -1 for Unix.
    [[nodiscard]] int port() const noexcept { return port_; }

    /// One request line in, one response line out (no trailing newline) —
    /// the dispatch workers run per line, exposed for tests.
    [[nodiscard]] std::string handle_line(std::string_view line);

private:
    void handle_connection(int fd, const std::atomic<bool>& stop);
    void maybe_periodic_snapshot(std::uint64_t observation_count);

    path_table& table_;
    server_config cfg_;
    int listen_fd_{-1};
    int port_{-1};
    std::mutex snapshot_mu_;

    std::mutex inflight_mu_;
    std::condition_variable inflight_cv_;
    std::size_t inflight_{0};
};

}  // namespace tcppred::serve
