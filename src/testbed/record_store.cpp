#include "testbed/record_store.hpp"

#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/checked_parse.hpp"
#include "core/contracts.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::testbed {

namespace {

constexpr char k_magic[] = "tcppred-store,v2";
/// Field of a `rec` line after "rec", the 3 coordinates and the measured
/// doubles: events, then fault_flags and the prefix count.
constexpr std::size_t k_events_field = 4 + k_measured_fields.size();
constexpr std::size_t k_fixed_fields = k_events_field + 3;
/// Per-record prefix-pair ceiling a reader accepts. The campaigns use at
/// most 3; this only bounds hostile inputs (and keeps 19 + 2n from wrapping).
constexpr std::uint64_t k_max_prefixes = 64;
/// A store without a journal reaches its temp file in writes of this size.
constexpr std::size_t k_write_bytes = std::size_t{1} << 16;

/// Decode one `rec` line, already split into `f`, into `r` in place.
void decode_record(const std::vector<std::string_view>& f, epoch_record& r,
                   const std::filesystem::path& file, std::size_t line_no) {
    if (f.size() < k_fixed_fields || f[0] != "rec") {
        throw dataset_error(file, line_no, 0, "bad record line");
    }
    r.path_id = parse_i32_field("path", f[1], file, line_no);
    r.trace_id = parse_i32_field("trace", f[2], file, line_no);
    r.epoch_index = parse_i32_field("epoch", f[3], file, line_no);
    epoch_measurement& m = r.m;
    try {
        for (std::size_t i = 0; i < k_measured_fields.size(); ++i) {
            const measured_field& mf = k_measured_fields[i];
            m.*mf.member = parse_hexd(f[4 + i], file, line_no);
            if (mf.loss_rate) core::check_loss_rate(mf.csv_column, f[4 + i], m.*mf.member);
        }
    } catch (const core::parse_error& e) {
        throw dataset_error(file, line_no, 0, e.what());
    }
    m.events = parse_u64_field("events", f[k_events_field], file, line_no);
    m.fault_flags = static_cast<std::uint32_t>(
        parse_u64_field("fault_flags", f[k_events_field + 1], file, line_no, UINT32_MAX));
    const auto n_prefix = static_cast<std::size_t>(parse_u64_field(
        "prefix count", f[k_events_field + 2], file, line_no, k_max_prefixes));
    if (f.size() != k_fixed_fields + 2 * n_prefix) {
        throw dataset_error(file, line_no, k_fixed_fields,
                            "prefix count disagrees with field count");
    }
    m.prefix_goodputs.clear();
    for (std::size_t i = 0; i < n_prefix; ++i) {
        const double s = parse_hexd(f[k_fixed_fields + 2 * i], file, line_no);
        const double bps = parse_hexd(f[k_fixed_fields + 2 * i + 1], file, line_no);
        m.prefix_goodputs.emplace_back(s, bps);
    }
}

}  // namespace

void record_counts::add(const epoch_record& rec) noexcept {
    if (records == 0 || rec.path_id != last_path || rec.trace_id != last_trace) {
        ++traces;
        last_path = rec.path_id;
        last_trace = rec.trace_id;
    }
    if (rec.m.fault_flags != fault_none) ++faulted;
    ++records;
}

// ---------------------------------------------------------------------------
// record_writer

record_writer::record_writer(const std::filesystem::path& file, const std::string& fingerprint,
                             const std::vector<std::string>& catalog_lines)
    : record_writer(file, {}, fingerprint, catalog_lines) {}

record_writer::record_writer(const std::filesystem::path& file,
                             const std::filesystem::path& journal, const std::string& fingerprint,
                             const std::vector<std::string>& catalog_lines,
                             const record_reader* prefix)
    : file_(file), path_(journal), journal_(!journal.empty()) {
    if (prefix != nullptr) {
        // Resume: the header and the whole records stay; a torn line or a
        // footer after them is cut off before the first append.
        TCPPRED_EXPECTS(journal_);
        size_ = prefix->valid_bytes();
        counts_ = prefix->streamed();
        if (prefix->torn_tail()) std::filesystem::resize_file(path_, size_);
        on_disk_ = true;
        return;
    }
    buf_ = std::string(k_magic) + "\nfingerprint," + fingerprint + "\npaths," +
           std::to_string(catalog_lines.size()) + '\n';
    for (const std::string& line : catalog_lines) buf_ += line + '\n';
    size_ = buf_.size();
    if (!journal_) {
        // Temp + rename: the target is only ever observed whole.
        path_ = same_dir_temp(file_);
        out_.open(path_, std::ios::trunc | std::ios::binary);
        if (!out_) throw std::runtime_error("record_writer: cannot open " + path_.string());
        on_disk_ = true;
    }
}

record_writer::~record_writer() {
    if (!finished_) abort();
}

void record_writer::append(const epoch_record& rec) {
    TCPPRED_EXPECTS(!finished_ && !aborted_);
    const std::size_t start = buf_.size();
    const epoch_measurement& m = rec.m;
    const auto field = [&](std::string_view v) {
        buf_ += ',';
        buf_ += v;
    };
    hexd_buffer hb{};
    buf_ += "rec";
    for (const int v : {rec.path_id, rec.trace_id, rec.epoch_index}) field(std::to_string(v));
    // Every double goes through hexd: the store round-trips bit-exactly.
    for (const measured_field& mf : k_measured_fields) field(hexd(m.*mf.member, hb));
    field(std::to_string(m.events));
    field(std::to_string(m.fault_flags));
    field(std::to_string(m.prefix_goodputs.size()));
    for (const auto& [s, bps] : m.prefix_goodputs) {
        field(hexd(s, hb));
        field(hexd(bps, hb));
    }
    buf_ += '\n';
    size_ += buf_.size() - start;
    counts_.add(rec);
    // A journal's bytes reach the disk only at flush(); a temp file's in
    // large writes.
    if (!journal_ && buf_.size() >= k_write_bytes) write_buffer();
}

bool record_writer::write_buffer() {
    if (!on_disk_) {
        // A journal's first write creates it whole, so a journal that exists
        // has a whole header.
        atomic_write_stream(path_, "record_writer", [&](std::ostream& out) { out << buf_; });
        on_disk_ = true;
    } else if (buf_.empty()) {
        return false;
    } else {
        if (!out_.is_open()) out_.open(path_, std::ios::app | std::ios::binary);
        out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
        if (!out_) throw std::runtime_error("record_writer: write failed on " + path_.string());
    }
    buf_.clear();
    return true;
}

bool record_writer::flush() {
    TCPPRED_EXPECTS(!finished_ && !aborted_);
    const bool wrote = write_buffer();
    if (out_.is_open() && !out_.flush()) {
        throw std::runtime_error("record_writer: write failed on " + path_.string());
    }
    return wrote;
}

void record_writer::finish() {
    if (finished_) return;
    TCPPRED_EXPECTS(!aborted_ && !file_.empty());
    const std::uint64_t footer_offset = size_;
    buf_ += "footer," + std::to_string(counts_.records) + ',' +
            std::to_string(counts_.traces) + ',' + std::to_string(counts_.faulted) +
            "\nend," + std::to_string(footer_offset) + '\n';
    flush();
    out_.close();
    std::error_code ec;
    std::filesystem::rename(path_, file_, ec);
    if (ec) {
        throw std::runtime_error("record_writer: cannot rename " + path_.string() +
                                 " into " + file_.string());
    }
    finished_ = true;
}

void record_writer::abort() noexcept {
    if (finished_ || aborted_) return;
    aborted_ = true;
    out_.close();
    if (journal_) return;  // the resume point: never deleted here
    std::error_code ignore;
    std::filesystem::remove(path_, ignore);
}

// ---------------------------------------------------------------------------
// record_reader

record_reader::record_reader(const std::filesystem::path& file,
                             const std::string& expected_fingerprint, mode m)
    : own_(file, std::ios::binary), file_(file), mode_(m) {
    if (!own_) throw dataset_error(file_, 0, 0, "cannot open record store");
    open(expected_fingerprint);
}

record_reader::record_reader(std::istream& in, std::filesystem::path context,
                             const std::string& expected_fingerprint, mode m)
    : in_(&in), file_(std::move(context)), mode_(m) {
    open(expected_fingerprint);
}

void record_reader::open(const std::string& expected_fingerprint) {
    std::uint64_t size = 0;
    if (mode_ == mode::finished) {
        // Footer discovery needs random access: probe it up front, so a
        // stream that cannot seek is not mistaken for a short store.
        std::istream& in = this->in();
        const std::istream::pos_type start = in.tellg();
        in.seekg(0, std::ios::end);
        const std::istream::pos_type end = in.tellg();
        if (start < std::istream::pos_type{0} || end < std::istream::pos_type{0} ||
            !in.seekg(start)) {
            throw dataset_error(file_, 0, 0,
                                "store stream is not seekable (footer discovery needs "
                                "random access)");
        }
        size = static_cast<std::uint64_t>(end - start);
    }
    const auto next_line = [&](const char* what) {
        // A header line must end in '\n': a journal's first flush writes the
        // whole header atomically, so a short one is corruption, not a torn
        // tail.
        if (!std::getline(in(), line_) || in().eof()) {
            if (line_no_ == 0 && line_.empty()) {
                throw dataset_error(file_, 0, 0, "store file is empty (0 bytes)");
            }
            throw dataset_error(file_, line_no_ + 1, 0,
                                std::string("truncated store: expected ") + what);
        }
        ++line_no_;
        valid_bytes_ += line_.size() + 1;
    };
    // The value after `key` on the current line, which must start with it.
    const auto value_of = [&](std::string_view key, const char* what) {
        if (line_.rfind(key, 0) != 0) {
            throw dataset_error(file_, line_no_, 0, std::string("expected ") + what);
        }
        return std::string_view(line_).substr(key.size());
    };

    next_line("magic");
    if (line_ != k_magic) {
        if (line_ == "tcppred-store,v1" || line_ == "tcppred-checkpoint,v1") {
            throw dataset_error(file_, line_no_, 0,
                                "a " + line_ +
                                    " file, a format this build no longer reads — "
                                    "regenerate it, or convert it with an older build");
        }
        throw dataset_error(file_, line_no_, 0, "not a tcppred record store");
    }
    next_line("fingerprint");
    const std::string_view fingerprint = value_of("fingerprint,", "fingerprint line");
    if (!expected_fingerprint.empty() && fingerprint != expected_fingerprint) {
        throw dataset_error(file_, line_no_, 0,
                            "store belongs to a different campaign config (fingerprint "
                            "mismatch); differing fields:" +
                                describe_fingerprint_mismatch(std::string(fingerprint),
                                                              expected_fingerprint));
    }
    next_line("paths");
    const std::uint64_t n_paths =
        parse_u64_field("paths", value_of("paths,", "paths line"), file_, line_no_);
    for (std::uint64_t i = 0; i < n_paths; ++i) {
        next_line("catalogue line");
        value_of("#path,", "#path catalogue line");
        catalog_lines_.push_back(line_);
    }
    if (mode_ == mode::finished) read_footer(size);
}

void record_reader::read_footer(std::uint64_t size) {
    // A finished store ends with "end,<footer offset>\n". Isolate that last
    // line from the tail, then validate the footer it points at — every
    // derived offset and count is checked before use: this is an untrusted
    // input.
    std::istream& in = this->in();
    const std::uint64_t data_start = valid_bytes_;
    const std::uint64_t tail_len = std::min<std::uint64_t>(size - data_start, 64);
    std::string tail(tail_len, '\0');
    in.seekg(static_cast<std::streamoff>(size - tail_len));
    in.read(tail.data(), static_cast<std::streamsize>(tail_len));
    const bool whole = in.gcount() == static_cast<std::streamsize>(tail_len) &&
                       !tail.empty() && tail.back() == '\n';
    const std::size_t nl = whole && tail.size() > 1 ? tail.rfind('\n', tail.size() - 2)
                                                    : std::string::npos;
    const std::size_t at = nl == std::string::npos ? 0 : nl + 1;
    // A last line that does not fit the window is no end line either.
    if (!whole || (nl == std::string::npos && tail_len < size - data_start) ||
        tail.compare(at, 4, "end,") != 0) {
        throw dataset_error(file_, 0, 0,
                            "record store has no footer: an unfinished journal — run "
                            "the campaign again with --resume to finish it");
    }
    footer_offset_ = parse_u64_field(
        "footer offset", std::string_view(tail).substr(at + 4, tail.size() - at - 5), file_,
        0);
    if (footer_offset_ < data_start || footer_offset_ >= size) {
        throw dataset_error(file_, 0, 0, "footer offset out of range");
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(footer_offset_));
    std::string footer;
    std::string end;
    if (!std::getline(in, footer) || footer.rfind("footer,", 0) != 0 ||
        !std::getline(in, end) || in.eof() ||
        end != "end," + std::to_string(footer_offset_) ||
        in.peek() != std::char_traits<char>::eof()) {
        throw dataset_error(file_, 0, 0, "end line does not point at the footer");
    }
    const auto f = split_fields(footer, ',');
    if (f.size() != 4) throw dataset_error(file_, 0, 0, "footer needs 4 fields");
    footer_.records =
        static_cast<std::size_t>(parse_u64_field("footer records", f[1], file_, 0));
    footer_.traces = static_cast<std::size_t>(parse_u64_field("footer traces", f[2], file_, 0));
    footer_.faulted =
        static_cast<std::size_t>(parse_u64_field("footer faulted", f[3], file_, 0));
    if (footer_.traces > footer_.records || footer_.faulted > footer_.records) {
        throw dataset_error(file_, 0, 0, "footer counts out of range");
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(data_start));
}

bool record_reader::next(epoch_record& out) {
    if (done_) return false;
    if (mode_ == mode::finished && valid_bytes_ == footer_offset_) {
        // The footer's counts drive store_to_csv's fault_flags column and
        // the analysis report, so they must be the records' own.
        done_ = true;
        if (seen_.records != footer_.records || seen_.traces != footer_.traces ||
            seen_.faulted != footer_.faulted) {
            throw dataset_error(
                file_, line_no_ + 1, 0,
                "footer counts disagree with the records: footer has " +
                    std::to_string(footer_.records) + " records, " +
                    std::to_string(footer_.traces) + " traces, " +
                    std::to_string(footer_.faulted) + " faulted; records have " +
                    std::to_string(seen_.records) + ", " + std::to_string(seen_.traces) +
                    ", " + std::to_string(seen_.faulted));
        }
        return false;
    }
    if (!std::getline(in(), line_)) {
        done_ = true;
        if (mode_ == mode::finished) {
            throw dataset_error(file_, line_no_, 0, "records end before the footer");
        }
        return false;
    }
    ++line_no_;
    const bool whole = !in().eof();
    if (mode_ == mode::journal &&
        (!whole || line_.rfind("footer,", 0) == 0 || line_.rfind("end,", 0) == 0)) {
        // The end of a journal's valid prefix: an append cut short, or the
        // footer of a finish() that never reached its rename.
        done_ = true;
        torn_tail_ = true;
        return false;
    }
    valid_bytes_ += line_.size() + 1;
    if (mode_ == mode::finished && valid_bytes_ > footer_offset_) {
        throw dataset_error(file_, line_no_, 0, "record line runs into the footer");
    }
    split_fields(line_, ',', fields_);
    decode_record(fields_, out, file_, line_no_);
    seen_.add(out);
    return true;
}

// ---------------------------------------------------------------------------
// store -> CSV conversion

void store_to_csv(record_reader& in, const std::filesystem::path& csv_file) {
    // The reader checks the footer's counts only at the end, so a rejected
    // store must not leave a half-written CSV behind.
    atomic_write_stream(csv_file, "store_to_csv", [&](std::ostream& out) {
        for (const std::string& line : in.catalog_lines()) out << line << '\n';
        const bool any_faults = in.any_faults();
        write_csv_header(out, any_faults);
        epoch_record rec;
        while (in.next(rec)) write_csv_record(out, rec, any_faults);
    });
}

// ---------------------------------------------------------------------------
// Journaled runs and the shard merge

namespace {

/// Linear index of a record read from a journal of `cfg`'s grid, from its
/// coordinates (path ids are catalogue indices, DESIGN.md §6).
std::size_t grid_index(const campaign_config& cfg, const epoch_record& rec,
                       const record_reader& reader) {
    const auto check = [&](const char* name, int v, int n) {
        if (v < 0 || v >= n) {
            throw dataset_error(reader.file(), reader.line_no(), 0,
                                std::string("record ") + name + " " + std::to_string(v) +
                                    " out of range (the grid has " + std::to_string(n) +
                                    ")");
        }
    };
    check("path", rec.path_id, cfg.paths);
    check("trace", rec.trace_id, cfg.traces_per_path);
    check("epoch", rec.epoch_index, cfg.epochs_per_trace);
    return (static_cast<std::size_t>(rec.path_id) *
                static_cast<std::size_t>(cfg.traces_per_path) +
            static_cast<std::size_t>(rec.trace_id)) *
               static_cast<std::size_t>(cfg.epochs_per_trace) +
           static_cast<std::size_t>(rec.epoch_index);
}

/// A journal of `cfg` read from its valid prefix. Its whole header must be
/// the one this run writes: the fingerprint, then the catalogue (whose count
/// is line 3 and whose lines start on line 4).
record_reader open_journal(const campaign_config& cfg, const std::filesystem::path& file,
                           const std::vector<std::string>& catalog) {
    record_reader reader(file, campaign_fingerprint(cfg), record_reader::mode::journal);
    const std::vector<std::string>& theirs = reader.catalog_lines();
    if (theirs.size() != catalog.size()) {
        throw dataset_error(file, 3, 0,
                            "journal has " + std::to_string(theirs.size()) +
                                " catalogue paths where this campaign has " +
                                std::to_string(catalog.size()) + " — refusing to use it");
    }
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        if (theirs[i] != catalog[i]) {
            throw dataset_error(file, 4 + i, 0,
                                "journal's path catalogue differs from this campaign's — "
                                "refusing to use it");
        }
    }
    return reader;
}

/// The journaled sweep behind both runners. Restores the journal's records
/// into `sink` (opts.resume), then sweeps the claimed indices past them,
/// appending each released record to the journal, which it flushes every
/// opts.checkpoint_every records, once more after a cancel or a worker
/// error, and at the end of a kept journal. `journal` is left open for the
/// caller to finish or drop.
campaign_outcome run_journaled(const campaign_config& cfg, const campaign_run_options& opts,
                               const std::filesystem::path& store_file,
                               const record_sink& sink, const progress_fn& progress,
                               std::optional<record_writer>& journal) {
    TCPPRED_EXPECTS(opts.checkpoint_every > 0);
    static const obs::counter c_resumed = obs::counter::get("campaign.epochs_resumed");
    static const obs::counter c_flushes = obs::counter::get("campaign.checkpoint_flushes");
    const std::string fingerprint = campaign_fingerprint(cfg);
    const std::vector<std::string> catalog = csv_catalog_lines(campaign_catalog(cfg));
    const std::size_t total = campaign_total_epochs(cfg);
    const auto next_claimed = [&](std::size_t idx) {
        while (idx < total && opts.epoch_filter && !opts.epoch_filter(idx)) ++idx;
        return idx;
    };

    // Resume: the journal must hold exactly the first k claimed indices, so
    // it restores by streaming into the sink in order — nothing grid-sized
    // is held.
    std::size_t resume_from = next_claimed(0);
    int resumed = 0;
    if (opts.resume && std::filesystem::exists(opts.checkpoint)) {
        record_reader reader = open_journal(cfg, opts.checkpoint, catalog);
        epoch_record rec;
        while (reader.next(rec)) {
            const std::size_t idx = grid_index(cfg, rec, reader);
            if (idx != resume_from) {
                throw dataset_error(opts.checkpoint, reader.line_no(), 0,
                                    "checkpoint is not a prefix of the claimed epoch "
                                    "order (record index " +
                                        std::to_string(idx) + " where " +
                                        std::to_string(resume_from) +
                                        " was expected) — refusing to resume");
            }
            sink(idx, std::move(rec));
            ++resumed;
            resume_from = next_claimed(idx + 1);
        }
        c_resumed.add(static_cast<std::uint64_t>(resumed));
        journal.emplace(store_file, opts.checkpoint, fingerprint, catalog, &reader);
    } else {
        journal.emplace(store_file, opts.checkpoint, fingerprint, catalog);
    }

    campaign_run_options rest = opts;
    rest.checkpoint.clear();
    rest.epoch_filter = [&opts, resume_from](std::size_t idx) {
        return idx >= resume_from && (!opts.epoch_filter || opts.epoch_filter(idx));
    };
    int since_flush = 0;
    const auto flush = [&] {
        if (journal->flush()) c_flushes.add();
        since_flush = 0;
    };
    const auto journaled = [&](std::size_t idx, epoch_record&& rec) {
        journal->append(rec);
        sink(idx, std::move(rec));
        if (++since_flush >= opts.checkpoint_every) flush();
    };
    progress_fn shifted;
    if (progress) shifted = [&](int done, int n) { progress(resumed + done, n); };
    campaign_outcome out;
    try {
        out = sweep_campaign(cfg, rest, journaled, shifted);
    } catch (...) {
        // The sweep released every record below the first hole before it
        // rethrew: persist them, then let the error propagate.
        flush();
        throw;
    }
    out.epochs_resumed = resumed;
    out.epochs_completed += resumed;
    // After a cancel, so everything released survives; for a filtered run,
    // whose journal is kept, so it exists even when nothing was left to do.
    if (!out.complete || opts.epoch_filter) flush();
    return out;
}

}  // namespace

campaign_outcome run_campaign_resumable(const campaign_config& cfg,
                                        const campaign_run_options& opts,
                                        progress_fn progress) {
    std::vector<epoch_record> records(campaign_total_epochs(cfg));
    const record_sink slots = [&](std::size_t idx, epoch_record&& rec) {
        records[idx] = std::move(rec);
    };
    campaign_outcome out;
    if (opts.checkpoint.empty()) {
        out = sweep_campaign(cfg, opts, slots, std::move(progress));
    } else {
        std::optional<record_writer> journal;
        out = run_journaled(cfg, opts, {}, slots, progress, journal);
        if (out.complete && !opts.epoch_filter) {
            journal->abort();
            std::error_code ec;  // best-effort cleanup; absence is fine
            std::filesystem::remove(opts.checkpoint, ec);
        }
    }
    out.data.records = std::move(records);
    return out;
}

campaign_outcome run_campaign_streamed(const campaign_config& cfg,
                                       const std::filesystem::path& store_file,
                                       const campaign_run_options& opts,
                                       progress_fn progress) {
    TCPPRED_EXPECTS(opts.epoch_filter ? !opts.checkpoint.empty() && store_file.empty()
                                      : !store_file.empty());
    if (opts.checkpoint.empty()) {
        record_writer writer(store_file, campaign_fingerprint(cfg),
                             csv_catalog_lines(campaign_catalog(cfg)));
        campaign_outcome out = sweep_campaign(
            cfg, opts, [&](std::size_t, epoch_record&& rec) { writer.append(rec); },
            std::move(progress));
        if (out.complete) writer.finish();  // else the destructor drops the temp
        return out;
    }
    std::optional<record_writer> journal;
    campaign_outcome out = run_journaled(
        cfg, opts, store_file, [](std::size_t, epoch_record&&) {}, progress, journal);
    if (out.complete && !opts.epoch_filter) journal->finish();
    return out;
}

std::size_t merge_shard_journals(const campaign_config& cfg,
                                 const std::vector<std::filesystem::path>& shard_ckpts,
                                 const record_sink& sink) {
    TCPPRED_EXPECTS(!shard_ckpts.empty());
    const std::size_t total = campaign_total_epochs(cfg);
    const std::vector<std::string> catalog = csv_catalog_lines(campaign_catalog(cfg));
    struct cursor {
        record_reader reader;
        epoch_record head;
        std::size_t idx{0};
        bool live{false};
        void advance(const campaign_config& cfg) {
            const bool had = live;
            const std::size_t prev = idx;
            live = reader.next(head);
            if (!live) return;
            idx = grid_index(cfg, head, reader);
            if (had && idx <= prev) {
                throw dataset_error(reader.file(), reader.line_no(), 0,
                                    "record index " + std::to_string(idx) +
                                        " does not ascend (previous " +
                                        std::to_string(prev) + ")");
            }
        }
    };
    std::vector<cursor> shards;
    shards.reserve(shard_ckpts.size());
    for (const auto& file : shard_ckpts) {
        // An absent shard means the campaign is not finished, so refuse.
        if (!std::filesystem::exists(file)) {
            throw dataset_error(file, 0, 0,
                                "shard checkpoint missing — run its shard to "
                                "completion before merging");
        }
        shards.push_back({open_journal(cfg, file, catalog), {}, 0, false});
        shards.back().advance(cfg);
    }

    // Each journal ascends strictly, so the smallest head is the next index
    // of the union; ties go to the earliest shard (first writer wins) and
    // the later duplicates are skipped.
    std::size_t covered = 0;
    std::optional<std::size_t> first_missing;
    for (;;) {
        cursor* first = nullptr;
        for (cursor& s : shards) {
            if (s.live && (first == nullptr || s.idx < first->idx)) first = &s;
        }
        if (first == nullptr) break;
        const std::size_t idx = first->idx;
        if (idx != covered && !first_missing) first_missing = covered;
        if (!first_missing) sink(idx, std::move(first->head));
        ++covered;
        for (cursor& s : shards) {
            if (s.live && s.idx == idx) s.advance(cfg);
        }
    }
    if (!first_missing && covered != total) first_missing = covered;
    if (first_missing) {
        std::ostringstream msg;
        msg << "shards cover only " << covered << " of " << total
            << " epochs (first missing linear index " << *first_missing
            << ") — every shard must be complete before merging";
        throw dataset_error(shard_ckpts.front(), 0, 0, msg.str());
    }
    return total;
}

std::size_t merge_shard_checkpoints_to_store(
    const campaign_config& cfg, const std::vector<std::filesystem::path>& shard_ckpts,
    const std::filesystem::path& store_file) {
    record_writer writer(store_file, campaign_fingerprint(cfg),
                         csv_catalog_lines(campaign_catalog(cfg)));
    const std::size_t merged = merge_shard_journals(
        cfg, shard_ckpts, [&](std::size_t, epoch_record&& rec) { writer.append(rec); });
    writer.finish();
    return merged;
}

std::filesystem::path csv_staging_store(const std::filesystem::path& csv_file) {
    std::filesystem::path p = csv_file;
    p += ".store";
    return p;
}

std::size_t export_store_to_csv(const std::filesystem::path& store,
                                const std::filesystem::path& csv_file) {
    // The staging store goes whether or not the export succeeds, so a failed
    // export leaves neither file (store_to_csv removes its own temp).
    const auto drop_store = [&] {
        std::error_code ignore;
        std::filesystem::remove(store, ignore);
    };
    try {
        record_reader reader(store);
        store_to_csv(reader, csv_file);
        drop_store();
        return reader.total();
    } catch (...) {
        drop_store();
        throw;
    }
}

void save_checkpoint(const campaign_checkpoint& ck, const std::filesystem::path& file) {
    record_writer journal({}, file, ck.fingerprint, {});
    for (std::size_t i = 0; i < ck.total; ++i) {
        if (ck.done[i]) journal.append(ck.records[i]);
    }
    journal.flush();
}

// ---------------------------------------------------------------------------
// The figure cache

namespace {

/// The cached store of `cfg` at `file`, as load_csv would read its CSV
/// export: the catalogue through load_csv's own line parser, every record
/// through csv_normalized_record. Throws dataset_error when the store is
/// missing, corrupt or of another fingerprint.
dataset read_cache(const campaign_config& cfg, const std::filesystem::path& file) {
    record_reader reader(file, campaign_fingerprint(cfg));
    dataset data;
    const std::vector<std::string>& catalogue = reader.catalog_lines();
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
        // The catalogue starts on the store's fourth line.
        data.paths.push_back(parse_csv_catalog_line(catalogue[i], file, 4 + i));
    }
    data.records.reserve(reader.total());
    epoch_record rec;
    while (reader.next(rec)) data.records.push_back(csv_normalized_record(rec));
    return data;
}

std::string scale_suffix(campaign_scale s) {
    switch (s) {
        case campaign_scale::tiny: return "tiny";
        case campaign_scale::normal: return "default";
        case campaign_scale::paper: return "paper";
    }
    return "default";
}

}  // namespace

dataset load_or_run(const campaign_config& cfg, const std::filesystem::path& file) {
    const std::string name = file.string();
    if (!std::filesystem::exists(file)) {
        std::fprintf(stderr, "[campaign] dataset %s not found\n", name.c_str());
    } else {
        try {
            return read_cache(cfg, file);
        } catch (const dataset_error& e) {
            std::fprintf(stderr, "[campaign] cached dataset refused: %s\n", e.what());
        }
    }
    const unsigned jobs = campaign_effective_jobs(cfg, campaign_total_epochs(cfg));
    std::fprintf(stderr,
                 "[campaign] running measurement campaign on %u thread(s) (this is done "
                 "once and cached)...\n",
                 jobs);
    int last_percent = -1;
    const obs::stopwatch watch;
    std::filesystem::create_directories(file.parent_path().empty() ? "."
                                                                   : file.parent_path());
    const campaign_outcome out =
        run_campaign_streamed(cfg, file, {}, [&](int done, int total) {
            const int percent = progress_percent(done, total);
            if (percent / 5 != last_percent / 5) {
                std::fprintf(stderr, "[campaign] %d%% (%d/%d epochs)\n", percent, done, total);
                last_percent = percent;
            }
        });
    const double wall_s = watch.elapsed_s();
    std::fprintf(stderr, "[campaign] %d epochs in %.2f s (%.1f epochs/s, %u jobs); saved to %s\n",
                 out.epochs_completed, wall_s,
                 wall_s > 0 ? static_cast<double>(out.epochs_completed) / wall_s : 0.0, jobs,
                 name.c_str());
    return read_cache(cfg, file);
}

dataset ensure_campaign1() {
    const campaign_scale scale = scale_from_env();
    return load_or_run(campaign1_config(scale),
                       data_dir() / ("campaign1_" + scale_suffix(scale) + ".store"));
}

dataset ensure_campaign2() {
    const campaign_scale scale = scale_from_env();
    return load_or_run(campaign2_config(scale),
                       data_dir() / ("campaign2_" + scale_suffix(scale) + ".store"));
}

}  // namespace tcppred::testbed
