#include "core/fb_formulas.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"

namespace tcppred::core {
namespace {

const tcp_flow_params k_flow{bytes{1 << 20}};

TEST(square_root, matches_hand_computation) {
    // E[R] = M / (T sqrt(2bp/3)), M=1460B, T=0.1s, b=2, p=0.01.
    const double expected = 1460.0 * 8.0 / (0.1 * std::sqrt(2.0 * 2.0 * 0.01 / 3.0));
    EXPECT_NEAR(square_root_throughput(k_flow, seconds{0.1}, probability{0.01}).value(),
                expected, 1.0);
}

TEST(square_root, lossless_returns_window_bound) {
    EXPECT_DOUBLE_EQ(
        square_root_throughput(k_flow, seconds{0.1}, probability{0.0}).value(),
        k_flow.max_window.value() * 8.0 / 0.1);
}

TEST(square_root, caps_at_window_bound) {
    // Tiny loss: raw formula would exceed W/T.
    tcp_flow_params f = k_flow;
    f.max_window = bytes{10000.0};
    const double bound = f.max_window.value() * 8.0 / 0.1;
    EXPECT_DOUBLE_EQ(
        square_root_throughput(f, seconds{0.1}, probability{1e-9}).value(), bound);
}

TEST(pftk, approaches_square_root_for_small_loss) {
    // With negligible timeout term the two models converge.
    const probability p{1e-4};
    const double sq = square_root_throughput(k_flow, seconds{0.05}, p).value();
    const double pf = pftk_throughput(k_flow, seconds{0.05}, p, seconds{1.0}).value();
    EXPECT_NEAR(pf / sq, 1.0, 0.05);
}

TEST(pftk, below_square_root_for_heavy_loss) {
    // Timeouts dominate at high p: PFTK must predict less.
    const double sq =
        square_root_throughput(k_flow, seconds{0.05}, probability{0.1}).value();
    const double pf =
        pftk_throughput(k_flow, seconds{0.05}, probability{0.1}, seconds{1.0}).value();
    EXPECT_LT(pf, sq * 0.7);
}

TEST(pftk, monotone_decreasing_in_loss) {
    double prev =
        pftk_throughput(k_flow, seconds{0.08}, probability{1e-4}, seconds{1.0}).value();
    for (double p = 1e-3; p < 0.5; p *= 2.0) {
        const double r =
            pftk_throughput(k_flow, seconds{0.08}, probability{p}, seconds{1.0}).value();
        EXPECT_LT(r, prev) << "p=" << p;
        prev = r;
    }
}

TEST(pftk, monotone_decreasing_in_rtt) {
    double prev =
        pftk_throughput(k_flow, seconds{0.01}, probability{0.01}, seconds{1.0}).value();
    for (double rtt = 0.02; rtt < 0.5; rtt *= 2.0) {
        const double r =
            pftk_throughput(k_flow, seconds{rtt}, probability{0.01}, seconds{1.0}).value();
        EXPECT_LT(r, prev) << "rtt=" << rtt;
        prev = r;
    }
}

// Out-of-range loss rates are unrepresentable at the type level: untrusted
// values go through probability::checked, which throws in every build mode.
TEST(pftk, rejects_out_of_range_loss_rate) {
    EXPECT_THROW((void)probability::checked(-0.1), std::invalid_argument);
    EXPECT_THROW((void)probability::checked(1.5), std::invalid_argument);
    EXPECT_THROW((void)probability::checked(std::nan("")), std::invalid_argument);
}

TEST(pftk, contract_rejects_nonpositive_rtt) {
#if TCPPRED_CHECKS
    EXPECT_THROW(
        (void)pftk_throughput(k_flow, seconds{0.0}, probability{0.01}, seconds{1.0}),
        contract_violation);
    EXPECT_THROW(
        (void)pftk_throughput(k_flow, seconds{-0.1}, probability{0.01}, seconds{1.0}),
        contract_violation);
#else
    GTEST_SKIP() << "contract checks compiled out (Release without REPRO_CHECKS)";
#endif
}

// --- domain edges (satellite: formula domain guards) ---

TEST(domain_edges, zero_loss_hits_window_bound_in_every_model) {
    const double bound = k_flow.max_window.value() * 8.0 / 0.05;
    EXPECT_DOUBLE_EQ(
        square_root_throughput(k_flow, seconds{0.05}, probability{0.0}).value(), bound);
    EXPECT_DOUBLE_EQ(
        pftk_throughput(k_flow, seconds{0.05}, probability{0.0}, seconds{1.0}).value(),
        bound);
    EXPECT_DOUBLE_EQ(
        pftk_full_throughput(k_flow, seconds{0.05}, probability{0.0}, seconds{1.0})
            .value(),
        bound);
}

TEST(domain_edges, certain_loss_is_finite_and_nonnegative) {
    for (const double r :
         {square_root_throughput(k_flow, seconds{0.05}, probability{1.0}).value(),
          pftk_throughput(k_flow, seconds{0.05}, probability{1.0}, seconds{1.0}).value(),
          pftk_full_throughput(k_flow, seconds{0.05}, probability{1.0}, seconds{1.0})
              .value()}) {
        EXPECT_TRUE(std::isfinite(r));
        EXPECT_GE(r, 0.0);
    }
}

TEST(domain_edges, vanishing_rtt_stays_finite) {
    // rtt → 0 blows up the window bound but every prediction must remain a
    // finite, positive number right up to the boundary.
    for (const double rtt : {1e-3, 1e-6, 1e-9}) {
        const double r =
            pftk_throughput(k_flow, seconds{rtt}, probability{0.01}, seconds{1.0}).value();
        EXPECT_TRUE(std::isfinite(r)) << "rtt=" << rtt;
        EXPECT_GT(r, 0.0) << "rtt=" << rtt;
    }
}

TEST(pftk_full, close_to_approximate_in_moderate_regime) {
    // §4.2.9: the revised/full model differs little from Eq. 2 at moderate
    // loss rates.
    for (const double p : {0.005, 0.01, 0.02, 0.05}) {
        const double approx =
            pftk_throughput(k_flow, seconds{0.06}, probability{p}, seconds{1.0}).value();
        const double full =
            pftk_full_throughput(k_flow, seconds{0.06}, probability{p}, seconds{1.0})
                .value();
        EXPECT_NEAR(full / approx, 1.0, 0.45) << "p=" << p;
    }
}

TEST(pftk_full, window_limited_regime_near_window_bound) {
    tcp_flow_params f = k_flow;
    f.max_window = bytes{14.0 * 1460.0};  // ~ the 20 KB companion flow
    // Tiny loss: the flow spends nearly all time at W.
    const double bound = f.max_window.value() * 8.0 / 0.05;
    const double r =
        pftk_full_throughput(f, seconds{0.05}, probability{1e-4}, seconds{1.0}).value();
    EXPECT_GT(r, bound * 0.7);
    EXPECT_LE(r, bound);
}

TEST(pftk_full, monotone_decreasing_in_loss) {
    double prev =
        pftk_full_throughput(k_flow, seconds{0.08}, probability{1e-4}, seconds{1.0})
            .value();
    for (double p = 1e-3; p < 0.5; p *= 2.0) {
        const double r =
            pftk_full_throughput(k_flow, seconds{0.08}, probability{p}, seconds{1.0})
                .value();
        EXPECT_LT(r, prev) << "p=" << p;
        prev = r;
    }
}

TEST(slow_start, matches_formula) {
    // E[d_ss] = (1-(1-p)^d)(1-p)/p + 1.
    const double d = 1000;
    const double expected = (1.0 - std::pow(0.99, d)) * 0.99 / 0.01 + 1.0;
    EXPECT_NEAR(expected_slow_start_segments(probability{0.01}, d), expected, 1e-9);
}

TEST(slow_start, lossless_delivers_whole_transfer_in_slow_start) {
    EXPECT_DOUBLE_EQ(expected_slow_start_segments(probability{0.0}, 500.0), 501.0);
}

TEST(slow_start, high_loss_exits_quickly) {
    EXPECT_LT(expected_slow_start_segments(probability{0.5}, 1000.0), 3.0);
}

TEST(short_transfer, slow_start_penalizes_short_low_loss_transfers) {
    // At negligible loss the whole short transfer rides the exponential
    // ramp: throughput grows with transfer length in that regime.
    const probability p{1e-4};
    const double t20 =
        short_transfer_throughput(k_flow, seconds{0.05}, p, seconds{1.0}, 20).value();
    const double t100 =
        short_transfer_throughput(k_flow, seconds{0.05}, p, seconds{1.0}, 100).value();
    const double t500 =
        short_transfer_throughput(k_flow, seconds{0.05}, p, seconds{1.0}, 500).value();
    EXPECT_LT(t20, t100);
    EXPECT_LT(t100, t500);
}

TEST(short_transfer, converges_to_steady_state_for_long_flows) {
    const double steady =
        pftk_throughput(k_flow, seconds{0.05}, probability{0.02}, seconds{1.0}).value();
    const double long_flow =
        short_transfer_throughput(k_flow, seconds{0.05}, probability{0.02}, seconds{1.0},
                                  1e6)
            .value();
    EXPECT_NEAR(long_flow / steady, 1.0, 0.02);
}

TEST(implied_loss, inverts_pftk) {
    for (const double p : {0.001, 0.01, 0.05, 0.2}) {
        const bits_per_second r =
            pftk_throughput(k_flow, seconds{0.06}, probability{p}, seconds{1.0});
        EXPECT_NEAR(pftk_implied_loss(k_flow, seconds{0.06}, seconds{1.0}, r).value(), p,
                    p * 0.01);
    }
}

TEST(implied_loss, window_bound_throughput_means_no_loss) {
    const double bound = k_flow.max_window.value() * 8.0 / 0.05;
    EXPECT_DOUBLE_EQ(pftk_implied_loss(k_flow, seconds{0.05}, seconds{1.0},
                                       bits_per_second{bound * 1.1})
                         .value(),
                     0.0);
}

TEST(estimate_t0, floors_at_one_second) {
    EXPECT_DOUBLE_EQ(estimate_t0(seconds{0.050}).value(), 1.0);
    EXPECT_DOUBLE_EQ(estimate_t0(seconds{0.8}).value(), 1.6);
}

// Property sweep: for every (rtt, p) combination the PFTK prediction is
// positive and never exceeds the window bound.
class pftk_bounds : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(pftk_bounds, positive_and_window_capped) {
    const auto [rtt, p] = GetParam();
    const double bound = k_flow.max_window.value() * 8.0 / rtt;
    for (const double r :
         {pftk_throughput(k_flow, seconds{rtt}, probability{p}, seconds{1.0}).value(),
          pftk_full_throughput(k_flow, seconds{rtt}, probability{p}, seconds{1.0})
              .value(),
          square_root_throughput(k_flow, seconds{rtt}, probability{p}).value()}) {
        EXPECT_GT(r, 0.0);
        EXPECT_LE(r, bound + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    sweep, pftk_bounds,
    ::testing::Combine(::testing::Values(0.005, 0.02, 0.08, 0.2, 0.5),
                       ::testing::Values(0.0, 1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0)));

}  // namespace
}  // namespace tcppred::core
