#include "testbed/record_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

#include "core/contracts.hpp"
#include "obs/stopwatch.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/load_process.hpp"

namespace tcppred::testbed {

namespace {

std::uint64_t parse_u64(const std::string& s, const std::filesystem::path& file,
                        std::size_t line_no) {
    if (s.empty() || s[0] == '-') {
        throw dataset_error(file, line_no, 0,
                            "expected a non-negative integer, got \"" + s + "\"");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
        throw dataset_error(file, line_no, 0,
                            "bad unsigned integer field \"" + s + "\"");
    }
    return v;
}

int parse_i32(const std::string& s, const std::filesystem::path& file,
              std::size_t line_no) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE || v < INT32_MIN ||
        v > INT32_MAX) {
        throw dataset_error(file, line_no, 0, "bad integer field \"" + s + "\"");
    }
    return static_cast<int>(v);
}

/// Per-record prefix-pair ceiling a reader accepts. The campaigns use at
/// most 3; this only bounds hostile inputs.
constexpr std::size_t k_max_store_prefixes = 64;

}  // namespace

// ---------------------------------------------------------------------------
// record_writer

record_writer::record_writer(const std::filesystem::path& file, std::string fingerprint,
                             std::vector<std::string> catalog_lines, store_options opts)
    : file_(file), opts_(opts) {
    TCPPRED_EXPECTS(opts_.chunk_capacity >= 1 &&
                    opts_.chunk_capacity <= k_max_chunk_capacity);
    const std::filesystem::path dir =
        file_.parent_path().empty() ? std::filesystem::path(".") : file_.parent_path();
    // Same-directory temp + rename: the target is only ever observed whole.
    // (atomic_write_text is not used here on purpose — it buffers the full
    // contents in memory, the exact pattern this module exists to avoid.)
    tmp_ = dir / (file_.filename().string() + "." + std::to_string(::getpid()) + ".tmp");
    out_.open(tmp_, std::ios::trunc | std::ios::binary);
    if (!out_) {
        throw std::runtime_error("record_writer: cannot open " + tmp_.string());
    }
    out_ << "tcppred-store,v1\n";
    out_ << "fingerprint," << fingerprint << '\n';
    out_ << "chunk_capacity," << opts_.chunk_capacity << '\n';
    out_ << "paths," << catalog_lines.size() << '\n';
    for (const std::string& line : catalog_lines) out_ << line << '\n';
    buf_.reserve(opts_.chunk_capacity);
}

record_writer::~record_writer() {
    if (!finished_) abort();
}

void record_writer::append(const epoch_record& rec) {
    TCPPRED_EXPECTS(!finished_ && !aborted_);
    if (!have_last_ || rec.path_id != last_path_ || rec.trace_id != last_trace_) {
        ++n_traces_;
        last_path_ = rec.path_id;
        last_trace_ = rec.trace_id;
        have_last_ = true;
    }
    if (rec.m.fault_flags != fault_none) ++n_faulted_;
    buf_.push_back(rec);
    ++total_;
    if (buf_.size() >= opts_.chunk_capacity) flush_chunk();
}

void record_writer::flush_chunk() {
    if (buf_.empty()) return;
    chunk_ref ref;
    ref.offset = static_cast<std::uint64_t>(out_.tellp());
    ref.count = buf_.size();
    out_ << "chunk," << chunks_.size() << ',' << buf_.size() << '\n';
    const auto col = [&](const char* name, auto&& emit_one) {
        out_ << "col," << name;
        for (const epoch_record& r : buf_) {
            out_ << ',';
            emit_one(r);
        }
        out_ << '\n';
    };
    col("path", [&](const epoch_record& r) { out_ << r.path_id; });
    col("trace", [&](const epoch_record& r) { out_ << r.trace_id; });
    col("epoch", [&](const epoch_record& r) { out_ << r.epoch_index; });
    // Every double goes through hexd: the store round-trips bit-exactly.
    col("availbw_bps", [&](const epoch_record& r) { out_ << hexd(r.m.avail_bw_bps); });
    col("phat", [&](const epoch_record& r) { out_ << hexd(r.m.phat); });
    col("phat_events", [&](const epoch_record& r) { out_ << hexd(r.m.phat_events); });
    col("that_s", [&](const epoch_record& r) { out_ << hexd(r.m.that_s); });
    col("ptilde", [&](const epoch_record& r) { out_ << hexd(r.m.ptilde); });
    col("ttilde_s", [&](const epoch_record& r) { out_ << hexd(r.m.ttilde_s); });
    col("r_large_bps", [&](const epoch_record& r) { out_ << hexd(r.m.r_large_bps); });
    col("r_small_bps", [&](const epoch_record& r) { out_ << hexd(r.m.r_small_bps); });
    col("tcp_loss", [&](const epoch_record& r) { out_ << hexd(r.m.tcp_loss_rate); });
    col("tcp_event_rate",
        [&](const epoch_record& r) { out_ << hexd(r.m.tcp_event_rate); });
    col("tcp_rtt_s", [&](const epoch_record& r) { out_ << hexd(r.m.tcp_mean_rtt_s); });
    col("sim_time_s", [&](const epoch_record& r) { out_ << hexd(r.m.sim_time_s); });
    col("events", [&](const epoch_record& r) { out_ << r.m.events; });
    col("fault_flags", [&](const epoch_record& r) { out_ << r.m.fault_flags; });
    col("n_prefix",
        [&](const epoch_record& r) { out_ << r.m.prefix_goodputs.size(); });
    // Flattened (s, bps) pairs, record-major; n_prefix above is the ragged
    // index into this column.
    out_ << "col,prefix";
    for (const epoch_record& r : buf_) {
        for (const auto& [s, bps] : r.m.prefix_goodputs) {
            out_ << ',' << hexd(s) << ',' << hexd(bps);
        }
    }
    out_ << '\n';
    chunks_.push_back(ref);
    buf_.clear();
}

void record_writer::finish() {
    if (finished_) return;
    TCPPRED_EXPECTS(!aborted_);
    flush_chunk();
    const auto footer_off = static_cast<std::uint64_t>(out_.tellp());
    out_ << "footer," << total_ << ',' << n_traces_ << ',' << n_faulted_ << ','
         << chunks_.size() << '\n';
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
        out_ << "chunkoff," << i << ',' << chunks_[i].offset << ',' << chunks_[i].count
             << '\n';
    }
    out_ << "end," << footer_off << '\n';
    out_.flush();
    if (!out_) {
        abort();
        throw std::runtime_error("record_writer: write failed on " + tmp_.string());
    }
    out_.close();
    std::error_code ec;
    std::filesystem::rename(tmp_, file_, ec);
    if (ec) {
        std::error_code ignore;
        std::filesystem::remove(tmp_, ignore);
        throw std::runtime_error("record_writer: cannot rename " + tmp_.string() +
                                 " into " + file_.string());
    }
    finished_ = true;
}

void record_writer::abort() noexcept {
    if (finished_ || aborted_) return;
    aborted_ = true;
    out_.close();
    std::error_code ignore;
    std::filesystem::remove(tmp_, ignore);
}

// ---------------------------------------------------------------------------
// record_reader

record_reader::record_reader(const std::filesystem::path& file,
                             const std::string& expected_fingerprint)
    : own_(file, std::ios::binary), in_(&own_), file_(file) {
    if (!own_) throw dataset_error(file_, 0, 0, "cannot open record store");
    open_and_validate(expected_fingerprint);
}

record_reader::record_reader(std::istream& in, std::filesystem::path context,
                             const std::string& expected_fingerprint)
    : in_(&in), file_(std::move(context)) {
    open_and_validate(expected_fingerprint);
}

void record_reader::open_and_validate(const std::string& expected_fingerprint) {
    std::istream& in = *in_;

    // Probe seekability and size up front: footer discovery needs random
    // access, and the probe lets the error messages distinguish an *empty*
    // store (a crashed writer's target, a truncated copy) from a stream
    // that genuinely cannot seek — both used to collapse into the baffling
    // "store is not seekable".
    const std::istream::pos_type probe_start = in.tellg();
    in.seekg(0, std::ios::end);
    const std::istream::pos_type probe_end = in.tellg();
    if (probe_start < std::istream::pos_type{0} ||
        probe_end < std::istream::pos_type{0} || !in.seekg(probe_start)) {
        throw dataset_error(file_, 0, 0,
                            "store stream is not seekable (footer discovery "
                            "needs random access)");
    }
    if (probe_end == probe_start) {
        throw dataset_error(file_, 0, 0, "store file is empty (0 bytes)");
    }

    std::string line;
    const auto next_line = [&](const char* what) {
        if (!std::getline(in, line)) {
            throw dataset_error(file_, line_no_ + 1, 0,
                                std::string("truncated store: expected ") + what);
        }
        ++line_no_;
    };

    next_line("magic");
    if (line != "tcppred-store,v1") {
        throw dataset_error(file_, line_no_, 0, "not a tcppred record store");
    }
    next_line("fingerprint");
    if (line.rfind("fingerprint,", 0) != 0) {
        throw dataset_error(file_, line_no_, 0, "expected fingerprint line");
    }
    fingerprint_ = line.substr(12);
    if (!expected_fingerprint.empty() && fingerprint_ != expected_fingerprint) {
        throw dataset_error(
            file_, line_no_, 0,
            "record store belongs to a different campaign config (fingerprint "
            "mismatch); differing fields:" +
                describe_fingerprint_mismatch(fingerprint_, expected_fingerprint));
    }
    next_line("chunk_capacity");
    if (line.rfind("chunk_capacity,", 0) != 0) {
        throw dataset_error(file_, line_no_, 0, "expected chunk_capacity line");
    }
    chunk_capacity_ =
        static_cast<std::size_t>(parse_u64(line.substr(15), file_, line_no_));
    if (chunk_capacity_ < 1 || chunk_capacity_ > k_max_chunk_capacity) {
        throw dataset_error(file_, line_no_, 0, "chunk_capacity out of range");
    }
    next_line("paths");
    if (line.rfind("paths,", 0) != 0) {
        throw dataset_error(file_, line_no_, 0, "expected paths line");
    }
    const std::uint64_t n_paths = parse_u64(line.substr(6), file_, line_no_);
    for (std::uint64_t i = 0; i < n_paths; ++i) {
        next_line("catalogue line");
        if (line.rfind("#path,", 0) != 0) {
            throw dataset_error(file_, line_no_, 0, "expected #path catalogue line");
        }
        catalog_lines_.push_back(line);
    }
    const auto data_start = static_cast<std::uint64_t>(in.tellg());

    // Footer discovery: the file ends with "end,<footer offset>". Seek to
    // the tail, isolate the last line, then validate the footer it points at
    // — every derived offset/count is checked before use, because this is an
    // untrusted input.
    in.clear();
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::int64_t>(in.tellg());
    if (size <= 0) {
        // Unreachable for empty/truncated input (the up-front probe and the
        // header reads reject those with specific messages first); a failed
        // tellg() here means the stream lost seekability mid-parse.
        throw dataset_error(file_, 0, 0, "store stream is not seekable");
    }
    const std::int64_t tail_len = std::min<std::int64_t>(size, 64);
    in.seekg(size - tail_len);
    std::string tail(static_cast<std::size_t>(tail_len), '\0');
    in.read(tail.data(), static_cast<std::streamsize>(tail_len));
    if (in.gcount() != tail_len) {
        throw dataset_error(file_, 0, 0, "cannot read store tail");
    }
    while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r')) {
        tail.pop_back();
    }
    const auto nl = tail.find_last_of('\n');
    const std::string end_line =
        nl == std::string::npos ? tail : tail.substr(nl + 1);
    if (end_line.rfind("end,", 0) != 0) {
        throw dataset_error(file_, 0, 0, "store missing end line (truncated?)");
    }
    const std::uint64_t footer_off = parse_u64(end_line.substr(4), file_, 0);
    if (footer_off < data_start || footer_off >= static_cast<std::uint64_t>(size)) {
        throw dataset_error(file_, 0, 0, "footer offset out of range");
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(footer_off));
    std::string fline;
    if (!std::getline(in, fline) || fline.rfind("footer,", 0) != 0) {
        throw dataset_error(file_, 0, 0, "end line does not point at a footer");
    }
    const auto ff = split_fields(fline, ',');
    if (ff.size() != 5) {
        throw dataset_error(file_, 0, 0, "footer needs 5 fields");
    }
    total_ = static_cast<std::size_t>(parse_u64(ff[1], file_, 0));
    n_traces_ = static_cast<std::size_t>(parse_u64(ff[2], file_, 0));
    n_faulted_ = static_cast<std::size_t>(parse_u64(ff[3], file_, 0));
    const std::uint64_t n_chunks = parse_u64(ff[4], file_, 0);
    if (n_traces_ > total_ || n_faulted_ > total_) {
        throw dataset_error(file_, 0, 0, "footer counts out of range");
    }
    std::uint64_t sum = 0;
    std::uint64_t prev_off = data_start;
    for (std::uint64_t i = 0; i < n_chunks; ++i) {
        std::string cline;
        if (!std::getline(in, cline)) {
            throw dataset_error(file_, 0, 0, "truncated footer index");
        }
        const auto cf = split_fields(cline, ',');
        if (cf.size() != 4 || cf[0] != "chunkoff" || parse_u64(cf[1], file_, 0) != i) {
            throw dataset_error(file_, 0, 0, "bad chunkoff line in footer index");
        }
        chunk_ref ref;
        ref.offset = parse_u64(cf[2], file_, 0);
        ref.count = static_cast<std::size_t>(parse_u64(cf[3], file_, 0));
        if (ref.offset < prev_off || ref.offset >= footer_off) {
            throw dataset_error(file_, 0, 0, "chunk offset out of range");
        }
        if (ref.count < 1 || ref.count > chunk_capacity_) {
            throw dataset_error(file_, 0, 0, "chunk count out of range");
        }
        // The writer fills every chunk but the last to capacity; enforcing
        // that here rejects spliced/reordered indexes early.
        if (i + 1 < n_chunks && ref.count != chunk_capacity_) {
            throw dataset_error(file_, 0, 0, "non-final chunk not full");
        }
        sum += ref.count;
        prev_off = ref.offset;
        chunks_.push_back(ref);
    }
    if (sum != total_) {
        throw dataset_error(file_, 0, 0, "chunk counts disagree with footer total");
    }
    std::string eline;
    if (!std::getline(in, eline) || eline != "end," + std::to_string(footer_off)) {
        throw dataset_error(file_, 0, 0, "footer index not terminated by end line");
    }
}

void record_reader::load_chunk() {
    const chunk_ref ref = chunks_[next_chunk_];
    std::istream& in = *in_;
    in.clear();
    in.seekg(static_cast<std::streamoff>(ref.offset));
    const auto fail = [&](const std::string& msg) {
        return dataset_error(file_, 0, 0,
                             "chunk " + std::to_string(next_chunk_) + ": " + msg);
    };
    std::string line;
    if (!std::getline(in, line)) throw fail("truncated: expected chunk header");
    {
        const auto f = split_fields(line, ',');
        if (f.size() != 3 || f[0] != "chunk") throw fail("expected chunk header line");
        if (parse_u64(f[1], file_, 0) != next_chunk_ ||
            parse_u64(f[2], file_, 0) != ref.count) {
            throw fail("chunk header disagrees with footer index");
        }
    }
    const std::size_t n = ref.count;
    const auto read_col = [&](const char* name) {
        if (!std::getline(in, line)) {
            throw fail(std::string("truncated: expected column ") + name);
        }
        auto f = split_fields(line, ',');
        if (f.size() < 2 || f[0] != "col" || f[1] != name) {
            throw fail(std::string("expected column ") + name);
        }
        return f;
    };
    const auto expect_n = [&](const std::vector<std::string>& f, const char* name,
                              std::size_t want) {
        if (f.size() != 2 + want) {
            throw fail(std::string("column ") + name + " has " +
                       std::to_string(f.size() - 2) + " values, expected " +
                       std::to_string(want));
        }
    };

    auto f = read_col("path");
    expect_n(f, "path", n);
    // Allocate only after an actual input line with n fields existed, so
    // memory stays proportional to the input on hostile headers.
    cur_.assign(n, epoch_record{});
    cur_pos_ = 0;
    for (std::size_t i = 0; i < n; ++i) cur_[i].path_id = parse_i32(f[2 + i], file_, 0);
    f = read_col("trace");
    expect_n(f, "trace", n);
    for (std::size_t i = 0; i < n; ++i) cur_[i].trace_id = parse_i32(f[2 + i], file_, 0);
    f = read_col("epoch");
    expect_n(f, "epoch", n);
    for (std::size_t i = 0; i < n; ++i) {
        cur_[i].epoch_index = parse_i32(f[2 + i], file_, 0);
    }

    const struct {
        const char* name;
        double epoch_measurement::*field;
    } dcols[] = {
        {"availbw_bps", &epoch_measurement::avail_bw_bps},
        {"phat", &epoch_measurement::phat},
        {"phat_events", &epoch_measurement::phat_events},
        {"that_s", &epoch_measurement::that_s},
        {"ptilde", &epoch_measurement::ptilde},
        {"ttilde_s", &epoch_measurement::ttilde_s},
        {"r_large_bps", &epoch_measurement::r_large_bps},
        {"r_small_bps", &epoch_measurement::r_small_bps},
        {"tcp_loss", &epoch_measurement::tcp_loss_rate},
        {"tcp_event_rate", &epoch_measurement::tcp_event_rate},
        {"tcp_rtt_s", &epoch_measurement::tcp_mean_rtt_s},
        {"sim_time_s", &epoch_measurement::sim_time_s},
    };
    for (const auto& dc : dcols) {
        f = read_col(dc.name);
        expect_n(f, dc.name, n);
        for (std::size_t i = 0; i < n; ++i) {
            cur_[i].m.*dc.field = parse_hexd(f[2 + i], file_, 0);
        }
    }

    f = read_col("events");
    expect_n(f, "events", n);
    for (std::size_t i = 0; i < n; ++i) cur_[i].m.events = parse_u64(f[2 + i], file_, 0);
    f = read_col("fault_flags");
    expect_n(f, "fault_flags", n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = parse_u64(f[2 + i], file_, 0);
        if (v > UINT32_MAX) throw fail("fault_flags out of range");
        cur_[i].m.fault_flags = static_cast<std::uint32_t>(v);
    }
    f = read_col("n_prefix");
    expect_n(f, "n_prefix", n);
    std::vector<std::size_t> np(n);
    std::size_t prefix_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        np[i] = static_cast<std::size_t>(parse_u64(f[2 + i], file_, 0));
        if (np[i] > k_max_store_prefixes) throw fail("implausible prefix count");
        prefix_sum += np[i];
    }
    f = read_col("prefix");
    expect_n(f, "prefix", 2 * prefix_sum);
    std::size_t at = 2;
    for (std::size_t i = 0; i < n; ++i) {
        cur_[i].m.prefix_goodputs.reserve(np[i]);
        for (std::size_t j = 0; j < np[i]; ++j) {
            const double s = parse_hexd(f[at], file_, 0);
            const double bps = parse_hexd(f[at + 1], file_, 0);
            cur_[i].m.prefix_goodputs.emplace_back(s, bps);
            at += 2;
        }
    }
    ++next_chunk_;
}

bool record_reader::next(epoch_record& out) {
    while (cur_pos_ >= cur_.size()) {
        if (next_chunk_ >= chunks_.size()) return false;
        load_chunk();
    }
    out = std::move(cur_[cur_pos_++]);
    return true;
}

// ---------------------------------------------------------------------------
// store -> CSV conversion

void store_to_csv(record_reader& in, const std::filesystem::path& csv_file) {
    std::ofstream out(csv_file);
    if (!out) {
        throw std::runtime_error("store_to_csv: cannot open " + csv_file.string());
    }
    for (const std::string& line : in.catalog_lines()) out << line << '\n';
    const bool any_faults = in.any_faults();
    write_csv_header(out, any_faults);
    epoch_record rec;
    while (in.next(rec)) write_csv_record(out, rec, any_faults);
    out.flush();
    if (!out) {
        throw std::runtime_error("store_to_csv: write failed on " + csv_file.string());
    }
}

// ---------------------------------------------------------------------------
// Streamed campaign sweep

streamed_campaign_outcome run_campaign_streamed(const campaign_config& cfg,
                                                const std::filesystem::path& store_file,
                                                const streamed_campaign_options& opts,
                                                progress_fn progress) {
    TCPPRED_EXPECTS(cfg.paths > 0 && cfg.traces_per_path > 0 &&
                    cfg.epochs_per_trace > 0);
    TCPPRED_EXPECTS(cfg.jobs >= 0);
    TCPPRED_EXPECTS(opts.reorder_capacity >= 1);
    const std::vector<path_profile> paths = campaign_catalog(cfg);
    const std::size_t total = campaign_total_epochs(cfg);
    const int total_i = static_cast<int>(total);
    trace_campaign_start(cfg);

    record_writer writer(store_file, campaign_fingerprint(cfg),
                         csv_catalog_lines(paths), opts.store);

    // Lazy per-trace load trajectories with last-epoch eviction: the
    // in-memory sweep pregenerates all of them (O(total) load_states), which
    // is exactly the kind of grid-sized allocation this path must not make.
    // Live entries ≈ traces with any epoch in flight ≈ jobs + 1, because
    // parallel_for claims indices in ascending (trace-major) order.
    struct trace_loads {
        std::vector<load_state> loads;
        int remaining{0};
    };
    std::map<std::size_t, trace_loads> load_cache;
    std::mutex cache_mutex;

    // In-order chunk sink behind a bounded reorder window. The worker
    // holding the lowest outstanding index is always admitted (it drains the
    // window), so blocking the rest at capacity cannot deadlock.
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::size_t, epoch_record> pending;
    std::size_t next_write = 0;
    bool sink_aborted = false;
    int completed = 0;
    std::atomic<bool> cancel{false};

    const auto abort_sink = [&] {
        const std::lock_guard<std::mutex> lock(mu);
        sink_aborted = true;
        cv.notify_all();
    };

    const auto push = [&](std::size_t idx, epoch_record&& rec) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
            return sink_aborted || idx == next_write ||
                   pending.size() < opts.reorder_capacity;
        });
        if (sink_aborted) return;
        if (idx == next_write) {
            writer.append(rec);
            ++next_write;
            while (!pending.empty() && pending.begin()->first == next_write) {
                writer.append(pending.begin()->second);
                pending.erase(pending.begin());
                ++next_write;
            }
            cv.notify_all();
        } else {
            pending.emplace(idx, std::move(rec));
        }
        ++completed;
        if (progress) progress(completed, total_i);
    };

    const auto run_one = [&](std::size_t idx) {
        if (cancel.load(std::memory_order_relaxed)) return;
        if (opts.cancelled && opts.cancelled()) {
            cancel.store(true, std::memory_order_relaxed);
            abort_sink();
            return;
        }
        const epoch_coords c = decompose_epoch_index(cfg, idx);
        const std::size_t trace_key =
            c.path_index * static_cast<std::size_t>(cfg.traces_per_path) +
            static_cast<std::size_t>(c.trace);
        load_state load;
        {
            const std::lock_guard<std::mutex> lock(cache_mutex);
            auto it = load_cache.find(trace_key);
            if (it == load_cache.end()) {
                trace_loads entry;
                entry.loads = load_trajectory(
                    paths[c.path_index],
                    sim::derive_seed(cfg.seed, "trace",
                                     static_cast<std::uint64_t>(paths[c.path_index].id),
                                     static_cast<std::uint64_t>(c.trace)),
                    cfg.epochs_per_trace);
                entry.remaining = cfg.epochs_per_trace;
                it = load_cache.emplace(trace_key, std::move(entry)).first;
            }
            load = it->second.loads[static_cast<std::size_t>(c.epoch)];
        }
        epoch_record rec =
            simulate_campaign_epoch(cfg, paths[c.path_index], load, c.trace, c.epoch);
        {
            const std::lock_guard<std::mutex> lock(cache_mutex);
            const auto it = load_cache.find(trace_key);
            if (it != load_cache.end() && --it->second.remaining == 0) {
                load_cache.erase(it);
            }
        }
        push(idx, std::move(rec));
    };

    try {
        const obs::stage_timer t_sweep("campaign.sweep");
        sim::parallel_for(total, campaign_effective_jobs(cfg, total), run_one);
    } catch (...) {
        abort_sink();
        writer.abort();
        throw;
    }

    streamed_campaign_outcome out;
    out.epochs_completed = completed;
    out.complete = !sink_aborted && writer.total() == total;
    if (out.complete) {
        writer.finish();
    } else {
        writer.abort();
    }
    return out;
}

// ---------------------------------------------------------------------------
// Streaming shard merge

std::size_t merge_shard_checkpoints_to_store(
    const campaign_config& cfg, const std::vector<std::filesystem::path>& shard_ckpts,
    const std::filesystem::path& store_file, store_options opts) {
    TCPPRED_EXPECTS(!shard_ckpts.empty());
    const std::string fingerprint = campaign_fingerprint(cfg);
    const std::size_t total = campaign_total_epochs(cfg);
    for (const auto& file : shard_ckpts) {
        if (!std::filesystem::exists(file)) {
            throw dataset_error(file, 0, 0,
                                "shard checkpoint missing — run its shard to "
                                "completion before merging");
        }
    }
    std::vector<checkpoint_reader> readers;
    readers.reserve(shard_ckpts.size());
    std::vector<std::optional<std::pair<std::size_t, epoch_record>>> cur;
    cur.reserve(shard_ckpts.size());
    for (const auto& file : shard_ckpts) {
        readers.emplace_back(file, fingerprint);
        if (readers.back().total() != total) {
            throw dataset_error(file, 0, 0,
                                "shard checkpoint epoch count disagrees with config");
        }
        cur.push_back(readers.back().next());
    }

    record_writer writer(store_file, fingerprint, csv_catalog_lines(campaign_catalog(cfg)),
                         opts);
    // One cursor per shard, advanced in lockstep over the linear order.
    // save_checkpoint writes records ascending, so each cursor only ever
    // moves forward; first writer wins on overlap (like the in-memory
    // merge), later shards' duplicates drain as their cursors catch up.
    for (std::size_t expected = 0; expected < total; ++expected) {
        bool found = false;
        for (std::size_t s = 0; s < readers.size(); ++s) {
            while (cur[s] && cur[s]->first < expected) cur[s] = readers[s].next();
            if (!found && cur[s] && cur[s]->first == expected) {
                writer.append(cur[s]->second);
                cur[s] = readers[s].next();
                found = true;
            }
        }
        if (!found) {
            throw dataset_error(
                shard_ckpts.front(), 0, 0,
                "shards do not cover linear epoch index " + std::to_string(expected) +
                    " — every shard must be complete before merging");
        }
    }
    writer.finish();
    return total;
}

}  // namespace tcppred::testbed
