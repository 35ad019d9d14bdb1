#include "testbed/shard.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/checked_parse.hpp"
#include "core/contracts.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::testbed {

namespace {

/// One field of a shard spec: a whole decimal int, optionally negative
/// (parse_shard's range check rejects it). Unlike parse_checked_int, a
/// leading '+' is not part of the grammar.
bool parse_int(std::string_view s, int& out) {
    if (s.starts_with('+')) return false;
    try {
        out = static_cast<int>(core::parse_checked_int("--shard", s,
                                                       std::numeric_limits<int>::min(),
                                                       std::numeric_limits<int>::max()));
    } catch (const core::parse_error&) {
        return false;
    }
    return true;
}

std::filesystem::path shard_file(const std::filesystem::path& out, shard_ref ref,
                                 const char* ext) {
    std::filesystem::path p = out;
    p += ".shard-" + std::to_string(ref.index) + "-of-" + std::to_string(ref.count) +
         ext;
    return p;
}

}  // namespace

std::optional<shard_ref> parse_shard(std::string_view spec) {
    const std::size_t slash = spec.find('/');
    if (slash == std::string_view::npos) return std::nullopt;
    shard_ref ref;
    if (!parse_int(spec.substr(0, slash), ref.index)) return std::nullopt;
    if (!parse_int(spec.substr(slash + 1), ref.count)) return std::nullopt;
    if (ref.count < 1 || ref.index < 0 || ref.index >= ref.count) return std::nullopt;
    return ref;
}

std::function<bool(std::size_t)> shard_filter(shard_ref ref) {
    TCPPRED_EXPECTS(ref.count >= 1 && ref.index >= 0 && ref.index < ref.count);
    return [ref](std::size_t idx) { return shard_of(idx, ref.count) == ref.index; };
}

std::size_t shard_size(std::size_t total, shard_ref ref) {
    TCPPRED_EXPECTS(ref.count >= 1 && ref.index >= 0 && ref.index < ref.count);
    const std::size_t count = static_cast<std::size_t>(ref.count);
    const std::size_t index = static_cast<std::size_t>(ref.index);
    return total / count + (total % count > index ? 1 : 0);
}

std::filesystem::path shard_checkpoint_path(const std::filesystem::path& out,
                                            shard_ref ref) {
    return shard_file(out, ref, ".ckpt");
}

std::filesystem::path shard_heartbeat_path(const std::filesystem::path& out,
                                           shard_ref ref) {
    return shard_file(out, ref, ".hb");
}

std::filesystem::path shard_log_path(const std::filesystem::path& out, shard_ref ref) {
    return shard_file(out, ref, ".log");
}

void write_heartbeat(const std::filesystem::path& file, const shard_heartbeat& hb) {
    std::ostringstream out;
    out << "tcppred-heartbeat v1\n"
        << "pid " << hb.pid << "\n"
        << "seq " << hb.seq << "\n"
        << "done " << hb.epochs_done << "\n"
        << "claimed " << hb.epochs_claimed << "\n";
    atomic_write_text(file, out.str());
}

std::optional<shard_heartbeat> read_heartbeat(const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in) return std::nullopt;
    std::string magic;
    std::string version;
    if (!(in >> magic >> version) || magic != "tcppred-heartbeat" || version != "v1") {
        return std::nullopt;
    }
    shard_heartbeat hb;
    std::string key;
    if (!(in >> key >> hb.pid) || key != "pid") return std::nullopt;
    if (!(in >> key >> hb.seq) || key != "seq") return std::nullopt;
    if (!(in >> key >> hb.epochs_done) || key != "done") return std::nullopt;
    if (!(in >> key >> hb.epochs_claimed) || key != "claimed") return std::nullopt;
    return hb;
}

std::size_t merge_shard_journals(const campaign_config& cfg,
                                 const std::vector<std::filesystem::path>& shard_ckpts,
                                 const record_sink& sink) {
    TCPPRED_EXPECTS(!shard_ckpts.empty());
    const std::string fingerprint = campaign_fingerprint(cfg);
    const std::size_t total = campaign_total_epochs(cfg);
    struct cursor {
        checkpoint_reader reader;
        std::optional<std::pair<std::size_t, epoch_record>> head;
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
        checkpoint_reader reader(file, fingerprint, total);
        auto head = reader.next();
        shards.push_back({std::move(reader), std::move(head)});
    }

    // Each journal ascends strictly, so the smallest head is the next index
    // of the union; ties go to the earliest shard (first writer wins) and
    // the later duplicates are skipped.
    std::size_t covered = 0;
    std::optional<std::size_t> first_missing;
    for (;;) {
        cursor* first = nullptr;
        for (cursor& s : shards) {
            if (s.head && (first == nullptr || s.head->first < first->head->first)) {
                first = &s;
            }
        }
        if (first == nullptr) break;
        const std::size_t idx = first->head->first;
        if (idx != covered && !first_missing) first_missing = covered;
        if (!first_missing) sink(idx, std::move(first->head->second));
        ++covered;
        for (cursor& s : shards) {
            if (s.head && s.head->first == idx) s.head = s.reader.next();
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

dataset merge_shard_checkpoints(const campaign_config& cfg,
                                const std::vector<std::filesystem::path>& shard_ckpts) {
    dataset data;
    data.paths = campaign_catalog(cfg);
    data.records.reserve(campaign_total_epochs(cfg));
    merge_shard_journals(cfg, shard_ckpts, [&](std::size_t, epoch_record&& rec) {
        data.records.push_back(std::move(rec));
    });
    return data;
}

}  // namespace tcppred::testbed
