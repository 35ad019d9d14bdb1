#include "testbed/shard.hpp"

#include <limits>
#include <string>

#include "core/checked_parse.hpp"
#include "core/contracts.hpp"

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
    std::filesystem::path p = out;
    p += ".shard-" + std::to_string(ref.index) + "-of-" + std::to_string(ref.count) +
         ".ckpt";
    return p;
}

}  // namespace tcppred::testbed
