#include <gtest/gtest.h>

#include "common/rng.h"

namespace sofa {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.uniformInt(0, 1 << 20) == b.uniformInt(0, 1 << 20);
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = r.gaussian(5.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, GaussianZeroStddevReturnsMeanAndKeepsStream)
{
    // A stddev-0 draw returns the mean exactly and consumes what a
    // unit draw consumes, so the draws after it match a twin stream
    // that drew at stddev 1.
    for (double mean : {-1.0, 0.0, 1.0}) {
        Rng zero(29), unit(29);
        for (int i = 0; i < 200; ++i) {
            EXPECT_EQ(zero.gaussian(mean, 0.0), mean);
            unit.gaussian(0.0, 1.0);
            EXPECT_EQ(zero.gaussian(), unit.gaussian());
            EXPECT_EQ(zero.uniform(), unit.uniform());
        }
    }
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng r(13);
    std::vector<double> w = {1.0, 3.0};
    int hits1 = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        hits1 += r.categorical(w) == 1;
    EXPECT_NEAR(static_cast<double>(hits1) / n, 0.75, 0.03);
}

TEST(Rng, CategoricalZeroWeightNeverPicked)
{
    Rng r(17);
    std::vector<double> w = {0.0, 1.0, 0.0};
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(r.categorical(w), 1u);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(19);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

} // namespace
} // namespace sofa
