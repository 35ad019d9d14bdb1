// Checked knob parsing (core/checked_parse.hpp): whole-token decimal /
// unsigned / double parsing with typed rejection. These are the semantics
// every CLI flag, environment knob and daemon request field now shares —
// the "atoi returns 0" failure mode this layer replaces must stay dead.
//
// The token tables below pin the std::from_chars fast paths inside
// parse_checked_int, parse_checked_u64 and testbed::parse_hexd to the
// strtoll / strtoull / strtod parsers they replaced, kept verbatim in
// namespace strto_reference: the same accept/reject decision, the same
// bits (NaN sign included) and the same message, token by token, and again
// through a record store carrying the token. The field splitter's rule
// cases sit beside them, and so does the differential test of the other
// direction: testbed::hexd against glibc's printf("%a").
#include "core/checked_parse.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"
#include "testbed/record_store.hpp"

using namespace tcppred::core;

TEST(parse_checked_int, accepts_plain_decimals_in_range) {
    EXPECT_EQ(parse_checked_int("--paths", "35", 1, 1000), 35);
    EXPECT_EQ(parse_checked_int("--paths", "1", 1, 1000), 1);
    EXPECT_EQ(parse_checked_int("--paths", "1000", 1, 1000), 1000);
    EXPECT_EQ(parse_checked_int("--delta", "-7", -10, 10), -7);
    EXPECT_EQ(parse_checked_int("--big", "9223372036854775807",
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()),
              std::numeric_limits<std::int64_t>::max());
}

TEST(parse_checked_int, rejects_everything_atoi_accepted_silently) {
    // Each of these was a silent 0 (or a silent truncation) under atoi.
    EXPECT_THROW((void)parse_checked_int("--paths", "foo", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "12x", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", " 12", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "12 ", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "1 2", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "0x10", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "3.5", 1, 1000), parse_error);
}

TEST(parse_checked_int, range_and_overflow_are_errors_not_saturation) {
    EXPECT_THROW((void)parse_checked_int("--paths", "0", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "-3", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "1001", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "99999999999999999999", 1, 1000),
                 parse_error);
}

TEST(parse_checked_int, error_names_the_knob_and_the_text) {
    try {
        (void)parse_checked_int("--paths", "foo", 1, 1000);
        FAIL() << "must throw";
    } catch (const parse_error& e) {
        EXPECT_EQ(e.knob(), "--paths");
        EXPECT_EQ(e.text(), "foo");
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--paths"), std::string::npos) << msg;
        EXPECT_NE(msg.find("\"foo\""), std::string::npos) << msg;
    }
}

TEST(parse_checked_u64, accepts_full_unsigned_range_and_rejects_sign) {
    EXPECT_EQ(parse_checked_u64("--seed", "0", 0,
                                std::numeric_limits<std::uint64_t>::max()),
              0u);
    EXPECT_EQ(parse_checked_u64("--seed", "18446744073709551615", 0,
                                std::numeric_limits<std::uint64_t>::max()),
              std::numeric_limits<std::uint64_t>::max());
    // strtoull would happily wrap "-1" around; the checked parser must not.
    EXPECT_THROW((void)parse_checked_u64("--seed", "-1", 0, 100), parse_error);
    EXPECT_THROW((void)parse_checked_u64("--seed", "18446744073709551616", 0,
                                         std::numeric_limits<std::uint64_t>::max()),
                 parse_error);
    EXPECT_THROW((void)parse_checked_u64("--seed", "12q", 0, 100), parse_error);
}

TEST(parse_checked_double, accepts_decimal_scientific_and_hexfloat) {
    EXPECT_DOUBLE_EQ(parse_checked_double("--transfer-s", "10", 0.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(parse_checked_double("--transfer-s", "2.5e1", 0.0, 100.0), 25.0);
    EXPECT_EQ(parse_checked_double("--x", "0x1.8p+1", 0.0, 100.0), 3.0);
}

TEST(parse_checked_double, rejects_nonfinite_partial_and_out_of_range) {
    EXPECT_THROW((void)parse_checked_double("--t", "inf", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "nan", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "1.5s", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "-0.1", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "1e10", 0.0, 1e9), parse_error);
}

// ---------------------------------------------------------------------------
// Token-level equivalence with the strto* parsers

namespace strto_reference {

// The whole-token parsers as they were before the from_chars fast paths,
// verbatim apart from the namespace: the reference every token is held to.

[[noreturn]] void reject(std::string_view knob, std::string_view text,
                         const std::string& reason) {
    throw parse_error(std::string(knob), std::string(text), reason);
}

template <typename Value, typename Fn>
Value strto_whole(std::string_view knob, std::string_view text, Fn fn,
                  const char* what) {
    if (text.empty()) reject(knob, text, std::string("expected ") + what);
    // strto* skip leading whitespace; the whole-token contract does not.
    if (std::isspace(static_cast<unsigned char>(text.front()))) {
        reject(knob, text, std::string("expected ") + what);
    }
    const std::string buf(text);
    errno = 0;
    char* end = nullptr;
    const Value v = fn(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || end == buf.c_str()) {
        reject(knob, text, std::string("expected ") + what);
    }
    if (errno == ERANGE) reject(knob, text, "value overflows");
    return v;
}

std::string range_msg(const std::string& lo, const std::string& hi) {
    return "expected a value in [" + lo + ", " + hi + "]";
}

std::int64_t parse_checked_int(std::string_view knob, std::string_view text,
                               std::int64_t min, std::int64_t max) {
    const long long v = strto_whole<long long>(
        knob, text, [](const char* s, char** end) { return std::strtoll(s, end, 10); },
        "an integer");
    if (v < min || v > max) {
        reject(knob, text, range_msg(std::to_string(min), std::to_string(max)));
    }
    return v;
}

std::uint64_t parse_checked_u64(std::string_view knob, std::string_view text,
                                std::uint64_t min, std::uint64_t max) {
    // strtoull silently negates "-1"; forbid the sign before parsing.
    if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
        reject(knob, text, "expected an unsigned integer");
    }
    const unsigned long long v = strto_whole<unsigned long long>(
        knob, text, [](const char* s, char** end) { return std::strtoull(s, end, 10); },
        "an unsigned integer");
    if (v < min || v > max) {
        reject(knob, text, range_msg(std::to_string(min), std::to_string(max)));
    }
    return v;
}

double parse_hexd(const std::string& s, const std::filesystem::path& file,
                  std::size_t line_no) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
        throw tcppred::testbed::dataset_error(file, line_no, 0,
                                              "bad hexfloat field \"" + s + "\"");
    }
    return v;
}

}  // namespace strto_reference

namespace {

using tcppred::testbed::dataset_error;

/// What one parse did: accepted with these bytes, or threw this message.
struct outcome {
    bool ok{false};
    std::uint64_t bits{0};
    std::string what;
};

template <typename Error, typename Fn>
outcome run_parse(Fn fn) {
    try {
        const auto v = fn();
        outcome o{true, 0, {}};
        static_assert(sizeof(v) <= sizeof(o.bits));
        std::memcpy(&o.bits, &v, sizeof(v));
        return o;
    } catch (const Error& e) {
        return {false, 0, e.what()};
    }
}

/// The token as a printable test label, embedded NULs escaped.
std::string label(std::string_view t) {
    std::string out = "\"";
    for (const char c : t) out += c == '\0' ? std::string("\\0") : std::string(1, c);
    return out + "\"";
}

void expect_same(const outcome& got, const outcome& want, std::string_view token,
                 const char* parser) {
    SCOPED_TRACE(std::string(parser) + " on " + label(token));
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.bits, want.bits) << std::hex << got.bits << " vs " << want.bits;
    EXPECT_EQ(got.what, want.what);
}

using namespace std::string_literals;

const std::vector<std::string> k_int_tokens = {
    "0", "5", "42", "-7", "+5", "-0", "+0", "007", "-007", " 5", "5 ", "\t5", "5\n",
    "1 2", "12x", "x12", "0x10", "3.5", "1e3", "", "-", "+", "--5", "-+5", "-1",
    "2147483647", "2147483648", "-2147483648", "-2147483649", "4294967295",
    "4294967296", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "18446744073709551615",
    "18446744073709551616", "99999999999999999999", "-99999999999999999999",
    "000000000000000000000000000001", "5\0"s, "5\0" "7"s};

const std::vector<std::string> k_double_tokens = {
    // Every form "%a" prints.
    "0x1p+0", "0x1.8p+1", "-0x1.921fb54442d18p+1", "0x1.fffffffffffffp+1023",
    "0x1p-1022", "0x0p+0", "-0x0p+0", "0x0.0000000000001p-1022",
    "-0x0.fffffffffffffp-1022", "nan", "-nan", "inf", "-inf",
    // std::from_chars(hex) after "0x" takes these whole; strtod does not.
    "0x-1", "-0x-1", "0xinf", "0xnan", "-0xinf", "0x-.8p+0", "-0x-.8p+0",
    "0x1p+-7", "-0x1p+-7", "0x1.8p+-1022",
    // Near misses at the prefix and the exponent sign.
    "0x+1", "0x.8p+0", "0x", "0x1p--7", "0x1p-+7", "0x1p+ 7",
    // Valid for strtod but not canonical: the checked path decodes them.
    "0X1P+0", " 0x1p+0", "+0x1p+0", "1.5", "-2.5e-3", "1e10", "0xABCp-3",
    "0xabc.defp+10", "0x1.p+0", "0x1P+0", "0x1.8", "0x1p7", "0xA.8p+0",
    "NAN", "Inf", "infinity", "nan(123)", "+nan", "+inf",
    // Out of range and long mantissas.
    "0x1p+99999", "-0x1p+99999", "0x1p-1075", "0x1p-1074", "0x1p-99999",
    "0x1p+99999999999999999999", "-0x1p-2147483649", "0x1p+0000000000000000000001",
    "0x1p+1023", "0x1p+1024", "0x1p-1023", "0x1.8p-1074", "0x1.fffffffffffffp-1023",
    "0x2p+0", "0x0p+5", "0x0.8p-1021", "0x1p+01023",
    // More than 53 significant bits in the subnormal range: strtod and
    // from_chars(hex) round these differently.
    "0x0.f000000000012cp-1022", "-0x0.900000000000ecp-1022",
    "0xd.f05236827778cp-1026", "-0x2.4a812f7bcec03p-1024",
    // More than 53 significant bits in the normal range: rounded alike.
    "0x1.fffffffffffff8p+0", "0x1.000000000000081p+0", "0x1.00000000000008p+0",
    "0x1.00000000000018p+0", "0x1.0000000000000000000000000000001p+0",
    // Rejected.
    "0x1p", "0x1p+", "12x", "0x1p+0x", "0x1p+0 ", "0x1g", "--0x1p+0", "-", "",
    "-nan(1", "0x1p+0\0junk"s, "nan\0"s};

}  // namespace

TEST(checked_parse_equivalence, integer_tokens_match_strtoll_and_strtoull) {
    constexpr auto i64_min = std::numeric_limits<std::int64_t>::min();
    constexpr auto i64_max = std::numeric_limits<std::int64_t>::max();
    constexpr auto u64_max = std::numeric_limits<std::uint64_t>::max();
    for (const std::string& t : k_int_tokens) {
        // The record store's i32 and u64 field ranges, and the full ones.
        const std::pair<std::int64_t, std::int64_t> ranges[] = {
            {INT32_MIN, INT32_MAX}, {i64_min, i64_max}, {1, 1000}};
        for (const auto& [lo, hi] : ranges) {
            expect_same(
                run_parse<parse_error>([&] { return parse_checked_int("--k", t, lo, hi); }),
                run_parse<parse_error>(
                    [&] { return strto_reference::parse_checked_int("--k", t, lo, hi); }),
                t, "parse_checked_int");
        }
        for (const std::uint64_t hi : {u64_max, std::uint64_t{UINT32_MAX}, std::uint64_t{64}}) {
            expect_same(
                run_parse<parse_error>([&] { return parse_checked_u64("--k", t, 0, hi); }),
                run_parse<parse_error>(
                    [&] { return strto_reference::parse_checked_u64("--k", t, 0, hi); }),
                t, "parse_checked_u64");
        }
    }
}

TEST(checked_parse_equivalence, hexfloat_tokens_match_strtod_bitwise) {
    const std::filesystem::path file = "tokens.store";
    for (const std::string& t : k_double_tokens) {
        expect_same(run_parse<dataset_error>(
                        [&] { return tcppred::testbed::parse_hexd(t, file, 7); }),
                    run_parse<dataset_error>(
                        [&] { return strto_reference::parse_hexd(t, file, 7); }),
                    t, "parse_hexd");
    }
    // Every token hexd() prints takes the fast path; spot-check that the
    // table's canonical tokens are really what hexd() emits.
    EXPECT_EQ(tcppred::testbed::hexd(-std::numeric_limits<double>::quiet_NaN()), "-nan");
    EXPECT_EQ(tcppred::testbed::hexd(-0.0), "-0x0p+0");
    EXPECT_EQ(tcppred::testbed::hexd(std::numeric_limits<double>::denorm_min()),
              "0x0.0000000000001p-1022");
}

namespace {

/// A three-record store whose text is then edited: field `field` of its
/// first `rec` line becomes `token`, and the end line's footer offset is
/// rebuilt so only the token differs from a well-formed store.
std::string store_with_token(std::size_t field, const std::string& token) {
    static const std::string base = [] {
        const auto file = std::filesystem::temp_directory_path() /
                          ("tcppred_checked_parse_" + std::to_string(::getpid()) + ".store");
        {
            tcppred::testbed::record_writer w(file, "fp", {"#path,0,p,us,1e6,0.1,50,0.5,1"});
            for (int i = 0; i < 3; ++i) {
                tcppred::testbed::epoch_record r;
                r.epoch_index = i;
                r.m.phat = 0.25 * (i + 1);
                r.m.events = 100 + static_cast<std::uint64_t>(i);
                w.append(r);
            }
            w.finish();
        }
        std::ifstream in(file, std::ios::binary);
        std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
        std::filesystem::remove(file);
        return text;
    }();

    std::istringstream in(base);
    std::string out;
    std::uint64_t footer_off = 0;
    bool replaced = false;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("footer,", 0) == 0) footer_off = out.size();
        if (!replaced && line.rfind("rec,", 0) == 0) {
            auto f = tcppred::testbed::split_fields(line, ',');
            f.at(field) = token;
            line.clear();
            for (const std::string& v : f) line += (line.empty() ? "" : ",") + v;
            replaced = true;
        }
        if (line.rfind("end,", 0) == 0) line = "end," + std::to_string(footer_off);
        out += line + '\n';
    }
    EXPECT_TRUE(replaced) << field;
    return out;
}

/// Stream every record of `text` (so every end-of-store check runs too)
/// and return what `field` reads from the first: the edited value.
template <typename Get>
outcome decode_first(const std::string& text, Get field) {
    return run_parse<dataset_error>([&] {
        std::istringstream in(text);
        tcppred::testbed::record_reader reader(in, "tokens.store");
        tcppred::testbed::epoch_record rec;
        decltype(field(rec)) first{};
        std::size_t n = 0;
        while (reader.next(rec)) {
            if (n++ == 0) first = field(rec);
        }
        EXPECT_EQ(n, 3u);
        return first;
    });
}

/// A checked-parse rejection as the reader reports it: a dataset_error
/// naming the store, the first record's line (after the magic, fingerprint,
/// paths and one catalogue line) and column 0.
constexpr std::size_t k_first_record_line = 5;
outcome as_store_error(outcome o) {
    if (!o.ok) o.what = "tokens.store:" + std::to_string(k_first_record_line) + ":0: " + o.what;
    return o;
}

// Fields of a `rec` line: "rec", path, trace, epoch, then the 12 doubles
// (phat second), events, fault_flags and the prefix count.
constexpr std::size_t k_epoch_field = 3;
constexpr std::size_t k_phat_field = 5;
constexpr std::size_t k_events_field = 16;

}  // namespace

TEST(checked_parse_equivalence, store_accepts_exactly_what_strto_accepts) {
    using tcppred::testbed::epoch_record;
    const std::filesystem::path file = "tokens.store";
    // The unedited store decodes, so each rejection below is the token's.
    ASSERT_TRUE(
        decode_first(store_with_token(k_phat_field, "0x1p-2"), [](const epoch_record& r) {
            return r.m.phat;
        }).ok);

    for (const std::string& t : k_double_tokens) {
        expect_same(decode_first(store_with_token(k_phat_field, t),
                                 [](const epoch_record& r) { return r.m.phat; }),
                    run_parse<dataset_error>([&] {
                        return strto_reference::parse_hexd(t, file, k_first_record_line);
                    }),
                    t, "record_reader phat");
    }
    for (const std::string& t : k_int_tokens) {
        // A separator inside a token changes the line's shape, not a field.
        if (t.find_first_of(",\n") != std::string::npos) continue;
        expect_same(decode_first(store_with_token(k_events_field, t),
                                 [](const epoch_record& r) { return r.m.events; }),
                    as_store_error(run_parse<parse_error>([&] {
                        return strto_reference::parse_checked_u64("events", t, 0,
                                                                  UINT64_MAX);
                    })),
                    t, "record_reader events");
        expect_same(decode_first(store_with_token(k_epoch_field, t),
                                 [](const epoch_record& r) { return r.epoch_index; }),
                    as_store_error(run_parse<parse_error>([&] {
                        return static_cast<int>(strto_reference::parse_checked_int(
                            "epoch", t, INT32_MIN, INT32_MAX));
                    })),
                    t, "record_reader epoch");
    }
}

TEST(split_fields, drops_one_trailing_empty_field) {
    using tcppred::testbed::split_fields;
    const auto split = [](std::string_view line) {
        std::vector<std::string_view> views;
        split_fields(line, ',', views);
        const std::vector<std::string> copied = split_fields(line, ',');
        EXPECT_EQ(copied.size(), views.size()) << line;
        for (std::size_t i = 0; i < views.size() && i < copied.size(); ++i) {
            EXPECT_EQ(copied[i], views[i]) << line;
        }
        return std::vector<std::string>(views.begin(), views.end());
    };
    using v = std::vector<std::string>;
    EXPECT_EQ(split("a,b,"), (v{"a", "b"}));
    EXPECT_EQ(split("a,,"), (v{"a", ""}));
    EXPECT_EQ(split(""), v{});
    EXPECT_EQ(split(","), (v{""}));
    EXPECT_EQ(split(",a"), (v{"", "a"}));
    EXPECT_EQ(split("a,,b"), (v{"a", "", "b"}));
    EXPECT_EQ(split("a"), (v{"a"}));
    EXPECT_EQ(split(" a , b "), (v{" a ", " b "}));

    // The view form reuses the caller's vector: it is cleared, not appended to.
    std::vector<std::string_view> views{"stale"};
    split_fields(std::string_view("x|y"), '|', views);
    EXPECT_EQ(views, (std::vector<std::string_view>{"x", "y"}));
}

// --- hexd is glibc's "%a", bit for bit --------------------------------------
// The in-tree formatter against snprintf("%a") on every edge of the format
// and on a million seeded random bit patterns. Each text must also parse
// back (parse_hexd) to the same bits; a NaN, whose payload "%a" does not
// print, to a NaN of the same sign.

namespace {

/// Empty when hexd(v) is snprintf's "%a" text and parses back to v;
/// otherwise what differed.
std::string hexd_mismatch(double v) {
    char want[64];
    std::snprintf(want, sizeof(want), "%a", v);
    tcppred::testbed::hexd_buffer buf{};
    const std::string_view got = tcppred::testbed::hexd(v, buf);
    std::ostringstream why;
    why << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << ": ";
    if (got != want) return why.str() + "hexd \"" + std::string(got) + "\", %a \"" + want + "\"";
    if (tcppred::testbed::hexd(v) != want) return why.str() + "string form differs";
    const double back = tcppred::testbed::parse_hexd(got, "hexd", 1);
    const bool same = std::isnan(v) ? std::isnan(back) && std::signbit(back) == std::signbit(v)
                                    : std::bit_cast<std::uint64_t>(back) ==
                                          std::bit_cast<std::uint64_t>(v);
    return same ? std::string() : why.str() + "parse_hexd returned other bits";
}

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

constexpr std::uint64_t k_sign = std::uint64_t{1} << 63;
constexpr std::uint64_t k_fraction = (std::uint64_t{1} << 52) - 1;

/// A 52-bit fraction whose hex form has exactly `digits` significant
/// digits (0-13) once trailing zeros go: 0x123456789abcd's leading ones,
/// or a lone 1 at the last of them.
std::uint64_t fraction_with_digits(int digits, bool lone_one) {
    if (digits == 0) return 0;
    const int shift = 4 * (13 - digits);
    return lone_one ? std::uint64_t{1} << shift
                    : (std::uint64_t{0x123456789abcd} >> shift) << shift;
}

}  // namespace

TEST(hexd, matches_printf_a_on_every_edge) {
    std::vector<double> values;
    for (const std::uint64_t sign : {std::uint64_t{0}, k_sign}) {
        values.push_back(from_bits(sign));                     // ±0
        values.push_back(from_bits(sign | 1));                 // min subnormal
        values.push_back(from_bits(sign | k_fraction));        // max subnormal
        values.push_back(from_bits(sign | (k_fraction + 1)));  // min normal
        values.push_back(from_bits(sign | 0x7fefffffffffffffULL));  // max normal
        values.push_back(from_bits(sign | 0x7ff0000000000000ULL));  // ±inf
        values.push_back(from_bits(sign | 0x7ff8000000000000ULL));  // quiet NaN
        values.push_back(from_bits(sign | 0x7ff0000000000001ULL));  // signaling NaN
        values.push_back(from_bits(sign | 0x7fffffffffffffffULL));  // NaN, full payload
        for (int digits = 0; digits <= 13; ++digits) {
            for (const bool lone_one : {false, true}) {
                const std::uint64_t f = fraction_with_digits(digits, lone_one);
                if (f != 0) values.push_back(from_bits(sign | f));  // subnormal
                for (const int exponent : {-1022, -1, 0, 1, 1023}) {
                    const auto biased = static_cast<std::uint64_t>(exponent + 1023);
                    values.push_back(from_bits(sign | (biased << 52) | f));
                }
            }
        }
    }
    // Exponents needing one to four decimal digits, both signs.
    for (const int exponent : {-1022, -999, -100, -99, -10, -9, 9, 10, 99, 100, 999, 1000}) {
        values.push_back(std::ldexp(1.5, exponent));
    }
    EXPECT_EQ(tcppred::testbed::hexd(1.0), "0x1p+0");
    EXPECT_EQ(tcppred::testbed::hexd(-0.0), "-0x0p+0");
    EXPECT_EQ(tcppred::testbed::hexd(0.1), "0x1.999999999999ap-4");
    for (const double v : values) EXPECT_EQ(hexd_mismatch(v), "");
}

TEST(hexd, matches_printf_a_on_a_million_random_bit_patterns) {
    // Uniform bits almost never reach a subnormal or a short fraction, so
    // every fourth pattern zeroes its exponent and every fourth clears a
    // random number of trailing fraction digits.
    std::size_t failures = 0;
    for (std::uint64_t i = 0; i < 1'000'000 && failures < 10; ++i) {
        std::uint64_t bits = tcppred::sim::mix64(0x6865786421ULL + i);
        if (i % 4 == 1) bits &= ~(std::uint64_t{0x7ff} << 52);
        if (i % 4 == 2) bits &= ~((std::uint64_t{1} << (4 * ((bits >> 56) % 14))) - 1);
        const std::string why = hexd_mismatch(from_bits(bits));
        if (!why.empty()) {
            ADD_FAILURE() << why;
            ++failures;
        }
    }
}
