/**
 * Randomized bit-exactness properties of the runtime-dispatched SIMD
 * kernels: for seeded random shapes (empty, single-element,
 * non-multiple-of-lane, ragged sparsity) every dispatched kernel must
 * be bit-identical to its scalar baseline — same float/int bits, same
 * survivor indices, same OpCounter tallies. On hosts without AVX2 the
 * forced level clamps to Scalar and the comparisons are trivially
 * (but still deterministically) exercised.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/dlzs.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "testprop.h"

namespace sofa {
namespace {

/** Bitwise equality for doubles (0.0 == -0.0 must *fail*). */
bool
sameBitsD(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameBitsF(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(KernelsProp, DotBlockSimdBitIdenticalToScalar)
{
    int simd_cases = 0;
    testprop::forEachSeededCase(200, [&](int c, Rng &rng) {
        const std::size_t n = testprop::edgeSize(rng, 0, 300);
        const std::vector<float> a = testprop::sparseFloats(rng, n);
        const std::vector<float> b = testprop::sparseFloats(rng, n);

        double ref, got;
        {
            simd::ScopedLevel lvl(simd::Level::Scalar);
            ref = dotBlock(a.data(), b.data(), n);
        }
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            if (simd::active() == simd::Level::Avx2)
                ++simd_cases;
            got = dotBlock(a.data(), b.data(), n);
        }
        ASSERT_TRUE(sameBitsD(ref, got))
            << "case " << c << " n=" << n << " scalar=" << ref
            << " simd=" << got;
        // The scalar dispatch path is the exported baseline.
        ASSERT_TRUE(
            sameBitsD(ref, dotBlockScalar(a.data(), b.data(), n)))
            << "case " << c;
    });
    if (simd::detected() == simd::Level::Avx2) {
        EXPECT_EQ(simd_cases, 200);
    }
}

TEST(KernelsProp, MinmaxBlockSimdBitIdenticalToScalar)
{
    testprop::forEachSeededCase(200, [&](int c, Rng &rng) {
        const std::size_t n = testprop::edgeSize(rng, 1, 300);
        std::vector<float> a = testprop::sparseFloats(rng, n);
        // Negative zero stresses the min/max tie semantics.
        if (n > 2 && rng.bernoulli(0.25))
            a[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(n) -
                                      1))] = -0.0f;

        float ref_mn, ref_mx, got_mn, got_mx;
        {
            simd::ScopedLevel lvl(simd::Level::Scalar);
            minmaxBlock(a.data(), n, &ref_mn, &ref_mx);
        }
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            minmaxBlock(a.data(), n, &got_mn, &got_mx);
        }
        ASSERT_TRUE(sameBitsF(ref_mn, got_mn) &&
                    sameBitsF(ref_mx, got_mx))
            << "case " << c << " n=" << n;

        float base_mn, base_mx;
        minmaxBlockScalar(a.data(), n, &base_mn, &base_mx);
        ASSERT_TRUE(sameBitsF(ref_mn, base_mn) &&
                    sameBitsF(ref_mx, base_mx))
            << "case " << c;
    });
}

TEST(KernelsProp, ScanSurvivorsSimdMatchesScalar)
{
    testprop::forEachSeededCase(200, [&](int c, Rng &rng) {
        const std::size_t n = testprop::edgeSize(rng, 0, 120);
        std::vector<float> x = testprop::sparseFloats(rng, n);
        if (n > 0 && rng.bernoulli(0.2))
            x[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(n) - 1))] =
                std::numeric_limits<float>::quiet_NaN();
        float threshold;
        switch (rng.uniformInt(0, 3)) {
        case 0:
            threshold = -std::numeric_limits<float>::infinity();
            break;
        case 1:
            threshold = std::numeric_limits<float>::infinity();
            break;
        default:
            threshold = static_cast<float>(rng.gaussian());
            break;
        }

        std::vector<std::int32_t> ref_idx(n + 1), got_idx(n + 1);
        std::size_t ref_kept, got_kept;
        {
            simd::ScopedLevel lvl(simd::Level::Scalar);
            ref_kept = simd::scanSurvivors(x.data(), n, threshold,
                                           ref_idx.data());
        }
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            got_kept = simd::scanSurvivors(x.data(), n, threshold,
                                           got_idx.data());
        }
        ASSERT_EQ(ref_kept, got_kept) << "case " << c << " n=" << n;
        for (std::size_t i = 0; i < ref_kept; ++i)
            ASSERT_EQ(ref_idx[i], got_idx[i])
                << "case " << c << " survivor " << i;
        ASSERT_EQ(ref_kept,
                  simd::scanSurvivorsScalar(x.data(), n, threshold,
                                            ref_idx.data()));
    });
}

/** Op tallies must agree field by field, not just in total. */
void
expectSameOps(const OpCounter &a, const OpCounter &b, int c)
{
    ASSERT_EQ(a.adds(), b.adds()) << "case " << c;
    ASSERT_EQ(a.cmps(), b.cmps()) << "case " << c;
    ASSERT_EQ(a.shifts(), b.shifts()) << "case " << c;
    ASSERT_EQ(a.muls(), b.muls()) << "case " << c;
    ASSERT_EQ(a.divs(), b.divs()) << "case " << c;
    ASSERT_EQ(a.exps(), b.exps()) << "case " << c;
}

TEST(KernelsProp, DlzsKPredictionSimdBitExactWithExactOps)
{
    testprop::forEachSeededCase(60, [&](int c, Rng &rng) {
        const std::size_t S = testprop::edgeSize(rng, 0, 24, 4);
        const std::size_t n = testprop::edgeSize(rng, 1, 24, 4);
        const std::size_t d = testprop::edgeSize(rng, 0, 40, 4);

        MatI8 tokens(S, n);
        const std::vector<std::int8_t> tok =
            testprop::sparseInts<std::int8_t>(rng, S * n, -128, 127);
        std::copy(tok.begin(), tok.end(), tokens.data().begin());
        MatI8 wk(n, d);
        const std::vector<std::int8_t> w =
            testprop::sparseInts<std::int8_t>(rng, n * d, -128, 127);
        std::copy(w.begin(), w.end(), wk.data().begin());
        const LzMatrix wk_lz = lzEncodeI8(wk);

        OpCounter ref_ops, got_ops;
        const MatI64 ref =
            dlzsKPredictionScalar(tokens, wk_lz, &ref_ops);
        MatI64 got;
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            got = dlzsKPrediction(tokens, wk_lz, &got_ops);
        }
        ASSERT_EQ(ref.rows(), got.rows());
        ASSERT_EQ(ref.cols(), got.cols());
        for (std::size_t i = 0; i < ref.data().size(); ++i)
            ASSERT_EQ(ref.data()[i], got.data()[i])
                << "case " << c << " elem " << i;
        expectSameOps(ref_ops, got_ops, c);
    });
}

TEST(KernelsProp, DlzsAPredictionSimdBitExactWithExactOps)
{
    testprop::forEachSeededCase(60, [&](int c, Rng &rng) {
        const std::size_t T = testprop::edgeSize(rng, 0, 12, 4);
        const std::size_t S = testprop::edgeSize(rng, 0, 24, 4);
        const std::size_t d = testprop::edgeSize(rng, 1, 40, 4);

        MatI16 q(T, d);
        // Full int16 range including INT16_MIN: |k| << 16 reaching
        // 2^31 is the overflow edge the int64 lanes must absorb.
        const std::vector<std::int16_t> qv =
            testprop::sparseInts<std::int16_t>(rng, T * d, -32768,
                                               32767);
        std::copy(qv.begin(), qv.end(), q.data().begin());
        MatI16 k_hat(S, d);
        const std::vector<std::int16_t> kv =
            testprop::sparseInts<std::int16_t>(rng, S * d, -32768,
                                               32767);
        std::copy(kv.begin(), kv.end(), k_hat.data().begin());
        const LzMatrix q_lz = lzEncodeI16(q);

        OpCounter ref_ops, got_ops;
        const MatI64 ref =
            dlzsAPredictionScalar(q_lz, k_hat, &ref_ops);
        MatI64 got;
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            got = dlzsAPrediction(q_lz, k_hat, &got_ops);
        }
        ASSERT_EQ(ref.rows(), got.rows());
        ASSERT_EQ(ref.cols(), got.cols());
        for (std::size_t i = 0; i < ref.data().size(); ++i)
            ASSERT_EQ(ref.data()[i], got.data()[i])
                << "case " << c << " elem " << i;
        expectSameOps(ref_ops, got_ops, c);
    });
}

TEST(KernelsProp, SimdLevelClampAndRestore)
{
    const simd::Level before = simd::active();
    {
        simd::ScopedLevel lvl(simd::Level::Scalar);
        EXPECT_EQ(simd::active(), simd::Level::Scalar);
        {
            simd::ScopedLevel inner(simd::Level::Avx2);
            // Nested override wins while alive, clamped to the CPU.
            EXPECT_EQ(simd::active(),
                      simd::detected() == simd::Level::Avx2
                          ? simd::Level::Avx2
                          : simd::Level::Scalar);
        }
        EXPECT_EQ(simd::active(), simd::Level::Scalar);
    }
    EXPECT_EQ(simd::active(), before);
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

TEST(SimdParseLevel, ExactNamesOnly)
{
    simd::Level level = simd::Level::Avx2;
    EXPECT_TRUE(simd::parseLevel("scalar", &level));
    EXPECT_EQ(level, simd::Level::Scalar);
    EXPECT_TRUE(simd::parseLevel("avx2", &level));
    EXPECT_EQ(level, simd::Level::Avx2);
    // Unset and empty leave the level to CPU detection.
    EXPECT_FALSE(simd::parseLevel(nullptr, &level));
    EXPECT_FALSE(simd::parseLevel("", &level));
    // Wrong case, unknown tiers, padding, trailing garbage.
    for (const char *bad : {"AVX2", "Scalar", "sse", "avx512", " avx2",
                            "avx2 ", "avx2x", "scalar,avx2", "0"})
        EXPECT_THROW(simd::parseLevel(bad, &level),
                     std::invalid_argument)
            << "'" << bad << "'";
}

TEST(SimdParseLevelDeath, MalformedEnvIsFatal)
{
    // Re-exec the child so the dispatch level is still uninitialized
    // and the first kernel call reads the environment.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    EXPECT_EXIT(
        {
            setenv("SOFA_SIMD", "AVX2", 1);
            simd::active();
        },
        ::testing::ExitedWithCode(1), "SOFA_SIMD");
}

} // namespace
} // namespace sofa
