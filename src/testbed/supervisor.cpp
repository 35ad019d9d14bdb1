#include "testbed/supervisor.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <exception>
#include <optional>
#include <sstream>
#include <utility>

#include "core/contracts.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "testbed/shard.hpp"

extern char** environ;  // worker env = ours + $REPRO_CHAOS_ATTEMPT

namespace tcppred::testbed {

namespace {

/// One occupied worker seat.
struct seat {
    shard_ref ref{};
    int attempt{1};
    pid_t pid{-1};
    std::uint64_t last_seq{0};
    bool have_seq{false};
    bool hung{false};           ///< we SIGKILLed it for a stale heartbeat
    obs::stopwatch quiet{};     ///< since the heartbeat last changed
};

/// A shard waiting (out) its backoff before relaunch.
struct pending_shard {
    shard_ref ref{};
    int attempt{1};
    double delay_s{0.0};
    obs::stopwatch since{};
};

double backoff_delay(const supervisor_options& opts, int attempt) {
    double d = opts.backoff_base_s;
    for (int k = 1; k < attempt && d < opts.backoff_cap_s; ++k) d *= 2.0;
    return std::min(d, opts.backoff_cap_s);
}

/// Fork+exec one worker on `ref`, attempt `attempt`. stdout/stderr append to
/// the shard log. Everything the child touches between fork and exec is
/// prepared up front (no allocation after fork). Returns -1 when fork fails.
pid_t spawn_worker(const supervisor_options& opts, shard_ref ref, int attempt) {
    std::vector<std::string> args = opts.worker_argv;
    args.push_back("--shard");
    args.push_back(std::to_string(ref.index) + "/" + std::to_string(ref.count));
    args.push_back("--jobs");
    args.push_back(std::to_string(std::max(1, opts.worker_jobs)));
    args.push_back("--resume");

    // Child env = ours with $REPRO_CHAOS_ATTEMPT pinned to this launch, so a
    // chaos-enabled worker draws a fresh kill/hang plan per attempt
    // (sim/chaos.hpp, 0-based: 0 = first launch) and a planned crash cannot
    // repeat forever.
    const std::string attempt_var =
        "REPRO_CHAOS_ATTEMPT=" + std::to_string(attempt - 1);
    std::vector<char*> envp;
    for (char** e = environ; e && *e; ++e) {
        if (std::strncmp(*e, "REPRO_CHAOS_ATTEMPT=", 20) == 0) continue;
        envp.push_back(*e);
    }
    envp.push_back(const_cast<char*>(attempt_var.c_str()));
    envp.push_back(nullptr);

    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    // A stale heartbeat from the previous attempt must not read as liveness.
    std::error_code ec;
    std::filesystem::remove(shard_heartbeat_path(opts.out, ref), ec);
    const std::string log = shard_log_path(opts.out, ref).string();

    const pid_t pid = ::fork();
    if (pid != 0) return pid;  // parent (or fork failure, -1)

    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
    }
    ::execvpe(argv[0], argv.data(), envp.data());
    ::_exit(127);  // exec failed: argv[0] is wrong — fatal, not retryable
}

void trace_worker_event(const char* ev, const seat& s, int wait_status) {
    if (!obs::trace_enabled()) return;
    obs::trace_emit(obs::json_line{}
                        .str("ev", ev)
                        .num("shard", static_cast<std::int64_t>(s.ref.index))
                        .num("of", static_cast<std::int64_t>(s.ref.count))
                        .num("attempt", static_cast<std::int64_t>(s.attempt))
                        .num("pid", static_cast<std::int64_t>(s.pid))
                        .num("wait_status", static_cast<std::int64_t>(wait_status))
                        .done());
}

}  // namespace

supervisor_result run_supervisor(const supervisor_options& opts) {
    TCPPRED_EXPECTS(opts.workers >= 1);
    TCPPRED_EXPECTS(!opts.out.empty());
    TCPPRED_EXPECTS(!opts.worker_argv.empty());
    TCPPRED_EXPECTS(opts.max_attempts >= 1);
    TCPPRED_EXPECTS(opts.merge != nullptr);
    static const obs::counter c_spawned = obs::counter::get("supervisor.workers_spawned");
    static const obs::counter c_restarts = obs::counter::get("supervisor.worker_restarts");
    static const obs::counter c_retries = obs::counter::get("supervisor.shard_retries");
    static const obs::counter c_reassigned =
        obs::counter::get("supervisor.shard_reassignments");
    static const obs::counter c_hangs = obs::counter::get("supervisor.hangs_killed");

    supervisor_result result;
    const int n = opts.workers;
    // Seats are worker slots 0..W-1; shard i starts on seat i and a retry
    // takes the first free seat — landing on a different seat counts as a
    // reassignment (the shard moved to a surviving worker slot).
    std::vector<std::optional<seat>> seats(static_cast<std::size_t>(n));
    std::vector<int> last_seat(static_cast<std::size_t>(n));
    std::vector<char> shard_done(static_cast<std::size_t>(n), 0);
    std::vector<pending_shard> pending;
    for (int i = 0; i < n; ++i) {
        last_seat[static_cast<std::size_t>(i)] = i;
        pending.push_back(pending_shard{shard_ref{i, n}, 1, 0.0, {}});
    }

    bool interrupting = false;
    bool failing = false;
    obs::stopwatch grace;  // read only while interrupting/failing
    const auto useconds = static_cast<unsigned>(
        std::max(0.001, opts.poll_interval_s) * 1e6);

    const auto active_count = [&] {
        return std::count_if(seats.begin(), seats.end(),
                             [](const auto& s) { return s.has_value(); });
    };
    const auto signal_all = [&](int sig) {
        for (auto& s : seats) {
            if (s) ::kill(s->pid, sig);
        }
    };
    const auto fail = [&](std::string why) {
        if (!failing && !interrupting) {
            result.error = std::move(why);
            failing = true;
            grace.restart();
            signal_all(SIGINT);  // let survivors checkpoint before we leave
        }
    };

    while (true) {
        // Cancellation: fan SIGINT out once, then drain.
        if (!interrupting && !failing && opts.cancelled && opts.cancelled()) {
            interrupting = true;
            grace.restart();
            signal_all(SIGINT);
        }

        // Launch eligible pending shards onto free seats.
        if (!interrupting && !failing) {
            for (std::size_t pi = 0; pi < pending.size();) {
                pending_shard& p = pending[pi];
                if (p.since.elapsed_s() < p.delay_s) {
                    ++pi;
                    continue;
                }
                const auto free_it =
                    std::find_if(seats.begin(), seats.end(),
                                 [](const auto& s) { return !s.has_value(); });
                if (free_it == seats.end()) break;
                const pid_t pid = spawn_worker(opts, p.ref, p.attempt);
                if (pid < 0) {
                    fail("fork failed: " + std::string(std::strerror(errno)));
                    break;
                }
                seat s;
                s.ref = p.ref;
                s.attempt = p.attempt;
                s.pid = pid;
                *free_it = s;
                const int seat_index = static_cast<int>(free_it - seats.begin());
                const auto shard_idx = static_cast<std::size_t>(p.ref.index);
                if (p.attempt > 1 && seat_index != last_seat[shard_idx]) {
                    c_reassigned.add();
                }
                last_seat[shard_idx] = seat_index;
                ++result.workers_spawned;
                c_spawned.add();
                if (p.attempt > 1) {
                    ++result.worker_restarts;
                    c_restarts.add();
                }
                trace_worker_event("worker_spawn", **free_it, 0);
                pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pi));
            }
        }

        // Reap exits.
        int status = 0;
        pid_t reaped = 0;
        while ((reaped = ::waitpid(-1, &status, WNOHANG)) > 0) {
            const auto it = std::find_if(seats.begin(), seats.end(), [&](const auto& s) {
                return s && s->pid == reaped;
            });
            if (it == seats.end()) continue;  // not one of ours
            const seat s = **it;
            it->reset();
            trace_worker_event("worker_exit", s, status);
            const bool exited = WIFEXITED(status);
            const int code = exited ? WEXITSTATUS(status) : -1;
            if (exited && code == 0) {
                shard_done[static_cast<std::size_t>(s.ref.index)] = 1;
                continue;
            }
            if (interrupting || failing) continue;  // drained, not retried
            if (exited && (code == 1 || code == 127)) {
                std::ostringstream why;
                why << "worker for shard " << s.ref.index << "/" << s.ref.count
                    << " exited " << code
                    << " (bad arguments or exec failure) — not retryable; see "
                    << shard_log_path(opts.out, s.ref).string();
                fail(why.str());
                continue;
            }
            // Crash (signal), runtime failure, or a stray SIGINT: retry with
            // backoff unless the shard is out of attempts.
            if (s.attempt >= opts.max_attempts) {
                std::ostringstream why;
                why << "shard " << s.ref.index << "/" << s.ref.count << " failed "
                    << s.attempt << " attempt(s) (last wait status " << status
                    << "); see " << shard_log_path(opts.out, s.ref).string();
                fail(why.str());
                continue;
            }
            c_retries.add();
            pending.push_back(pending_shard{s.ref, s.attempt + 1,
                                            backoff_delay(opts, s.attempt + 1),
                                            {}});
        }

        // Heartbeat scan: a seat whose beacon has not changed within the
        // hang timeout is wedged — SIGKILL it; the reap above then treats it
        // as a crash and retries.
        if (!interrupting && !failing) {
            for (auto& s : seats) {
                if (!s || s->hung) continue;
                const auto hb = read_heartbeat(shard_heartbeat_path(opts.out, s->ref));
                if (hb && (!s->have_seq || hb->seq != s->last_seq)) {
                    s->have_seq = true;
                    s->last_seq = hb->seq;
                    s->quiet.restart();
                } else if (s->quiet.elapsed_s() > opts.hang_timeout_s) {
                    s->hung = true;
                    ++result.hangs_killed;
                    c_hangs.add();
                    trace_worker_event("worker_hang_kill", *s, 0);
                    ::kill(s->pid, SIGKILL);
                }
            }
        }

        if (interrupting || failing) {
            if (active_count() == 0) break;
            // Workers normally exit promptly on SIGINT (they flush their
            // shard checkpoint first); a chaos-hung worker never will, so
            // SIGKILL stragglers after the grace period.
            if (grace.elapsed_s() > opts.hang_timeout_s) signal_all(SIGKILL);
        } else if (pending.empty() && active_count() == 0) {
            break;  // every shard exited 0
        }
        ::usleep(useconds);
    }

    if (interrupting) {
        result.interrupted = true;
        return result;
    }
    if (failing) return result;

    // All shards complete: merge their journals into the output. The shard
    // journals play the role a serial run's journal plays — they are
    // consumed (removed) once the output is safely written; logs stay.
    try {
        std::vector<std::filesystem::path> ckpts;
        ckpts.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            ckpts.push_back(shard_checkpoint_path(opts.out, shard_ref{i, n}));
        }
        result.epochs_merged = opts.merge(opts.cfg, ckpts, opts.out);
        for (int i = 0; i < n; ++i) {
            std::error_code ec;
            std::filesystem::remove(shard_checkpoint_path(opts.out, shard_ref{i, n}), ec);
            std::filesystem::remove(shard_heartbeat_path(opts.out, shard_ref{i, n}), ec);
        }
        if (obs::trace_enabled()) {
            obs::trace_emit(obs::json_line{}
                                .str("ev", "supervisor_merge")
                                .num("shards", static_cast<std::int64_t>(n))
                                .num("epochs",
                                     static_cast<std::uint64_t>(result.epochs_merged))
                                .done());
        }
    } catch (const std::exception& e) {
        result.error = std::string("merge failed: ") + e.what();
        return result;
    }
    result.complete = true;
    return result;
}

}  // namespace tcppred::testbed
