#include <gtest/gtest.h>

#include <random>

#include "pda/weight.hpp"

namespace aalwines::pda {
namespace {

TEST(Weight, OneIsNeutralUnderExtend) {
    const auto w = Weight::of({3, 1, 4});
    EXPECT_EQ(extend(w, Weight::one()), w);
    EXPECT_EQ(extend(Weight::one(), w), w);
    EXPECT_TRUE(Weight::one().is_one());
    EXPECT_FALSE(w.is_one());
}

TEST(Weight, InfinityIsAbsorbing) {
    const auto w = Weight::of({3});
    EXPECT_TRUE(extend(w, Weight::infinity()).is_infinite());
    EXPECT_TRUE(extend(Weight::infinity(), w).is_infinite());
    EXPECT_TRUE(Weight::infinity().is_infinite());
}

TEST(Weight, ExtendIsComponentwiseWithPadding) {
    const auto a = Weight::of({1, 2});
    const auto b = Weight::of({10, 20, 30});
    EXPECT_EQ(extend(a, b).components(), (std::vector<std::uint64_t>{11, 22, 30}));
    EXPECT_EQ(extend(b, a).components(), (std::vector<std::uint64_t>{11, 22, 30}));
}

TEST(Weight, LexicographicOrdering) {
    EXPECT_LT(Weight::of({1, 100}), Weight::of({2, 0}));
    EXPECT_LT(Weight::of({1, 0}), Weight::of({1, 1}));
    EXPECT_EQ(Weight::of({1, 0}), Weight::of({1}));   // missing components = 0
    EXPECT_EQ(Weight::one(), Weight::of({0, 0}));
    EXPECT_LT(Weight::of({5}), Weight::infinity());
    EXPECT_EQ(Weight::infinity(), Weight::infinity());
    EXPECT_LT(Weight::one(), Weight::scalar(1));
}

TEST(Weight, ScalarShorthand) {
    EXPECT_EQ(Weight::scalar(7).components(), (std::vector<std::uint64_t>{7}));
}

TEST(Weight, ToStringShapes) {
    EXPECT_EQ(Weight::one().to_string(), "(0)");
    EXPECT_EQ(Weight::infinity().to_string(), "inf");
    EXPECT_EQ(Weight::of({5, 0}).to_string(), "(5, 0)");
}

TEST(Weight, ExtendSaturatesInsteadOfWrapping) {
    const auto huge = Weight::of({UINT64_MAX - 1});
    const auto more = Weight::of({10});
    const auto sum = extend(huge, more);
    EXPECT_EQ(sum.components(), (std::vector<std::uint64_t>{UINT64_MAX}));
    // Saturation keeps monotonicity: huge <= huge + more.
    EXPECT_LE(huge, sum);
}

/// Semiring laws on random samples: ⊗ commutative & associative with 1̄ as
/// identity; ordering total and monotone under ⊗ (the Dijkstra requirement).
TEST(WeightProperty, SemiringLaws) {
    std::mt19937_64 rng(7);
    auto random_weight = [&]() {
        if (rng() % 8 == 0) return Weight::infinity();
        if (rng() % 8 == 0) return Weight::one();
        std::vector<std::uint64_t> components;
        const auto n = 1 + rng() % 3;
        for (std::uint64_t i = 0; i < n; ++i) components.push_back(rng() % 50);
        return Weight::of(std::move(components));
    };
    for (int round = 0; round < 500; ++round) {
        const auto a = random_weight();
        const auto b = random_weight();
        const auto c = random_weight();
        EXPECT_EQ(extend(a, b), extend(b, a));
        EXPECT_EQ(extend(extend(a, b), c), extend(a, extend(b, c)));
        EXPECT_EQ(extend(a, Weight::one()), a);
        // Totality of the order.
        EXPECT_TRUE(a < b || b < a || a == b);
        // Monotonicity: x <= x ⊗ y for non-negative weights.
        EXPECT_LE(a, extend(a, b));
        // Monotone in both arguments: a <= b implies a⊗c <= b⊗c.
        if (a <= b) {
            EXPECT_LE(extend(a, c), extend(b, c));
        }
    }
}

} // namespace
} // namespace aalwines::pda
