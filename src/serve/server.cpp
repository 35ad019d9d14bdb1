#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/counters.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "sim/thread_pool.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::serve {

namespace {

const char* status_name(core::prediction_status s) {
    switch (s) {
        case core::prediction_status::ok: return "ok";
        case core::prediction_status::no_history: return "no_history";
        case core::prediction_status::unavailable: return "unavailable";
    }
    return "unknown";
}

[[noreturn]] void sock_fail(const std::string& what) {
    throw std::runtime_error("tcppred_serve: " + what + ": " + std::strerror(errno));
}

/// write(2) the whole buffer, riding out EINTR and short writes.
bool write_all(int fd, std::string_view data) {
    while (!data.empty()) {
        const ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

}  // namespace

server::server(path_table& table, server_config cfg)
    : table_(table), cfg_(std::move(cfg)) {
    if (!cfg_.unix_socket.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (cfg_.unix_socket.size() >= sizeof(addr.sun_path)) {
            throw std::runtime_error("tcppred_serve: socket path too long: " +
                                     cfg_.unix_socket);
        }
        std::memcpy(addr.sun_path, cfg_.unix_socket.c_str(),
                    cfg_.unix_socket.size() + 1);
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0) sock_fail("socket");
        ::unlink(cfg_.unix_socket.c_str());  // stale socket from a previous run
        if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
            sock_fail("bind " + cfg_.unix_socket);
        }
    } else if (cfg_.tcp_port >= 0) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) sock_fail("socket");
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port));
        if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
            sock_fail("bind 127.0.0.1:" + std::to_string(cfg_.tcp_port));
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
            sock_fail("getsockname");
        }
        port_ = static_cast<int>(ntohs(bound.sin_port));
    } else {
        throw std::runtime_error("tcppred_serve: no listen address (need --socket or --port)");
    }
    if (::listen(listen_fd_, 64) != 0) sock_fail("listen");
}

server::~server() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (!cfg_.unix_socket.empty()) ::unlink(cfg_.unix_socket.c_str());
}

void server::maybe_periodic_snapshot(std::uint64_t observation_count) {
    static const obs::counter c_failures = obs::counter::get("serve.snapshot_failures");
    if (cfg_.snapshot_every == 0 || cfg_.snapshot_file.empty()) return;
    if (observation_count % cfg_.snapshot_every != 0) return;
    const std::lock_guard<std::mutex> lock(snapshot_mu_);
    try {
        write_snapshot(table_, cfg_.snapshot_file);
    } catch (const std::exception& e) {
        // The observation that triggered this is applied: failing its
        // OBSERVE would make a retrying client apply it twice.
        c_failures.add();
        std::fprintf(stderr, "tcppred_serve: periodic snapshot failed: %s\n", e.what());
    }
}

std::string server::handle_line(std::string_view line) {
    static const obs::counter c_requests = obs::counter::get("serve.requests");
    static const obs::counter c_errors = obs::counter::get("serve.request_errors");
    c_requests.add();
    try {
        const request req = parse_request_line(line);
        switch (req.kind) {
            case request_kind::observe: {
                const std::uint64_t count = table_.observe(req.path, req.obs);
                maybe_periodic_snapshot(count);
                return "OK";
            }
            case request_kind::predict: {
                const predict_reply reply = table_.predict(req.path, req.spec);
                switch (reply.st) {
                    case predict_reply::status::unknown_spec:
                        c_errors.add();
                        return "ERR unknown spec (not in this daemon's --specs)";
                    case predict_reply::status::unknown_path:
                        c_errors.add();
                        return "ERR unknown path";
                    case predict_reply::status::no_observations:
                        c_errors.add();
                        return "ERR no observations for path";
                    case predict_reply::status::ok: break;
                }
                testbed::hexd_buffer hb{};
                std::string out = "OK ";
                out += testbed::hexd(reply.value.value_bps, hb);
                out += ' ';
                out += status_name(reply.value.status);
                out += ' ';
                out += core::to_string(reply.value.inputs_used.source);
                out += ' ';
                out += std::to_string(reply.value.inputs_used.staleness);
                out += ' ';
                out += std::to_string(reply.epoch);
                return out;
            }
            case request_kind::stats: {
                std::string out = "OK paths=";
                out += std::to_string(table_.path_count());
                out += " observations=";
                out += std::to_string(table_.observations());
                out += " specs=";
                out += join_specs(table_.spec_names());
                return out;
            }
            case request_kind::snapshot: {
                if (cfg_.snapshot_file.empty()) {
                    c_errors.add();
                    return "ERR no snapshot file configured (--snapshot)";
                }
                const std::lock_guard<std::mutex> lock(snapshot_mu_);
                try {
                    write_snapshot(table_, cfg_.snapshot_file);
                } catch (const std::exception& e) {
                    c_errors.add();
                    return std::string("ERR snapshot failed: ") + e.what();
                }
                return "OK";
            }
        }
        c_errors.add();
        return "ERR internal: unhandled request kind";
    } catch (const protocol_error& e) {
        c_errors.add();
        return std::string("ERR ") + e.what();
    }
}

void server::handle_connection(int fd, const std::atomic<bool>& stop) {
    static const obs::counter c_conns = obs::counter::get("serve.connections");
    c_conns.add();
    std::string buf;
    char chunk[4096];
    bool open = true;
    while (open && !stop.load(std::memory_order_relaxed)) {
        pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 200);
        if (pr < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (pr == 0) continue;  // timeout: re-check stop
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (n == 0) break;  // client hung up
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        while (true) {
            const std::size_t nl = buf.find('\n', start);
            if (nl == std::string::npos) break;
            std::string_view line(buf.data() + start, nl - start);
            if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
            std::string response = handle_line(line);
            response += '\n';
            if (!write_all(fd, response)) {
                open = false;
                break;
            }
            start = nl + 1;
        }
        buf.erase(0, start);
        if (buf.size() > k_max_line_bytes) {
            // A line that long can only be hostile; answer once and drop.
            write_all(fd, "ERR request line too long\n");
            break;
        }
    }
    ::close(fd);
}

void server::run(const std::atomic<bool>& stop) {
    sim::thread_pool pool(static_cast<unsigned>(cfg_.workers == 0 ? 1 : cfg_.workers));
    while (!stop.load(std::memory_order_relaxed)) {
        // Bounded admission: wait for a free slot before accepting, so a
        // flood of connections backs up in the kernel's listen queue
        // instead of an unbounded task queue.
        {
            std::unique_lock<std::mutex> lock(inflight_mu_);
            if (!inflight_cv_.wait_for(lock, std::chrono::milliseconds(100), [&] {
                    return inflight_ < k_max_inflight ||
                           stop.load(std::memory_order_relaxed);
                })) {
                continue;
            }
            if (stop.load(std::memory_order_relaxed)) break;
            ++inflight_;
        }
        bool admitted = false;
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 200);
        if (pr > 0) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd >= 0) {
                admitted = true;
                pool.submit([this, fd, &stop] {
                    handle_connection(fd, stop);
                    const std::lock_guard<std::mutex> lock(inflight_mu_);
                    --inflight_;
                    inflight_cv_.notify_one();
                });
            }
        }
        if (!admitted) {
            const std::lock_guard<std::mutex> lock(inflight_mu_);
            --inflight_;
            inflight_cv_.notify_one();
        }
    }
    pool.wait();
}

}  // namespace tcppred::serve
