#include "testbed/shard.hpp"

#include <fstream>
#include <limits>
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

}  // namespace tcppred::testbed
