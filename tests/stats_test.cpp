#include "analysis/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tcppred::analysis {
namespace {

TEST(stats, mean_median_stddev) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(mean(xs), 3.0);
    EXPECT_DOUBLE_EQ(median(xs), 3.0);
    EXPECT_NEAR(stddev(xs), std::sqrt(2.0), 1e-12);
}

/// The documented inverse ECDF by brute force: the smallest sample v whose
/// F(v) = at(v) reaches q.
double inverse_ecdf_reference(const ecdf& cdf, double q) {
    for (const double v : cdf.sorted()) {
        if (cdf.at(v) >= q) return v;
    }
    return cdf.sorted().back();
}

TEST(quantile_rule, is_the_inverse_ecdf_at_integer_and_fractional_qn) {
    // 0.9 · 70 = 63 and 0.28 · 25 = 7 land on an integer rank (the second
    // only after rounding: 7.000000000000001 in doubles); 0.9 · 8 = 7.2 and
    // 0.5 · 25 = 12.5 do not. One ulp above 1/3, q · 3 rounds down to 1.0
    // although F(sorted[0]) = 1/3 < q.
    struct row {
        std::size_t n;
        double q;
        std::size_t index;
    };
    for (const row r : {row{70, 0.9, 62}, row{25, 0.28, 6}, row{8, 0.5, 3},
                        row{8, 0.9, 7}, row{4, 0.9, 3}, row{25, 0.5, 12},
                        row{70, 0.0, 0}, row{70, 1.0, 69}, row{1, 0.5, 0},
                        row{3, std::nextafter(1.0 / 3.0, 1.0), 1}}) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < r.n; ++i) xs.push_back(static_cast<double>(r.n - i));
        const ecdf cdf{xs};
        const double expected = cdf.sorted()[r.index];
        EXPECT_EQ(quantile(xs, r.q), expected) << r.n << " " << r.q;
        EXPECT_EQ(cdf.quantile(r.q), expected) << r.n << " " << r.q;
        EXPECT_EQ(inverse_ecdf_reference(cdf, r.q), expected) << r.n << " " << r.q;
        if (r.q == 0.5) {
            EXPECT_EQ(median(xs), expected) << r.n;
        }
    }
}

TEST(quantile_rule, matches_the_brute_force_inverse_on_every_percentile) {
    for (std::size_t n = 1; n <= 80; ++n) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i) xs.push_back(std::sin(0.7 * static_cast<double>(i)));
        const ecdf cdf{xs};
        for (int pct = 0; pct <= 100; ++pct) {
            const double q = pct / 100.0;
            EXPECT_EQ(cdf.quantile(q), inverse_ecdf_reference(cdf, q)) << n << " " << q;
            EXPECT_EQ(quantile(xs, q), cdf.quantile(q)) << n << " " << q;
        }
    }
}

TEST(quantile_rule, ties_and_empty_input) {
    const std::vector<double> xs{2.0, 1.0, 2.0, 2.0};
    EXPECT_EQ(quantile(xs, 0.25), 1.0);
    EXPECT_EQ(quantile(xs, 0.26), 2.0);
    EXPECT_EQ(quantile(std::vector<double>{}, 0.5), 0.0);
    EXPECT_EQ(ecdf{std::vector<double>{}}.quantile(0.5), 0.0);
}

TEST(quantile_rule, one_validation_rule_for_q) {
    const std::vector<double> xs{1.0};
    for (const double q : {-0.1, 1.1, std::nan("")}) {
        EXPECT_THROW((void)quantile(xs, q), std::invalid_argument) << q;
        EXPECT_THROW((void)ecdf{xs}.quantile(q), std::invalid_argument) << q;
        EXPECT_THROW((void)quantile(std::vector<double>{}, q), std::invalid_argument) << q;
    }
}

TEST(stats, share_counts_the_predicate) {
    const std::vector<double> xs{-2.0, -1.0, 0.0, 1.0, 9.0};
    EXPECT_DOUBLE_EQ(share(xs, [](double x) { return x > 0; }), 0.4);
    EXPECT_DOUBLE_EQ(share(xs, [](double x) { return x <= -1; }), 0.4);
    EXPECT_EQ(share(std::vector<double>{}, [](double) { return true; }), 0.0);
}

TEST(stats, pearson_perfect_correlation) {
    const std::vector<double> xs{1, 2, 3, 4};
    const std::vector<double> ys{2, 4, 6, 8};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    const std::vector<double> zs{8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(stats, pearson_degenerate_is_zero) {
    const std::vector<double> xs{1, 1, 1};
    const std::vector<double> ys{1, 2, 3};
    EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(stats, cov_is_relative_spread) {
    const std::vector<double> xs{90.0, 110.0};
    EXPECT_NEAR(cov(xs), 10.0 / 100.0, 1e-12);
}

TEST(weighted_cov_fn, equals_plain_cov_for_stationary_series) {
    std::vector<double> s;
    for (int i = 0; i < 40; ++i) s.push_back(100.0 + (i % 2 == 0 ? 3.0 : -3.0));
    EXPECT_NEAR(weighted_cov(s), cov(s), 1e-9);
}

TEST(weighted_cov_fn, shift_does_not_inflate_cov) {
    // Two perfectly flat levels: a naive CoV over the whole series is large,
    // the stationarity-weighted CoV is ~0.
    std::vector<double> s(20, 10.0);
    s.insert(s.end(), 20, 30.0);
    EXPECT_GT(cov(s), 0.3);
    EXPECT_NEAR(weighted_cov(s), 0.0, 1e-9);
}

TEST(weighted_cov_fn, outliers_are_excluded) {
    std::vector<double> s(30, 10.0);
    s[7] = 100.0;
    EXPECT_NEAR(weighted_cov(s), 0.0, 1e-9);
}

TEST(ecdf_class, fraction_below_threshold) {
    ecdf e({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(e.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(e.at(2.0), 0.5);
    EXPECT_DOUBLE_EQ(e.at(10.0), 1.0);
}

TEST(ecdf_class, quantile_inverts_cdf) {
    ecdf e({5.0, 1.0, 3.0});
    EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(e.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(e.quantile(0.5), 3.0);
}

}  // namespace
}  // namespace tcppred::analysis
