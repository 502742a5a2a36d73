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

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/dlzs.h"
#include "model/model_workload.h"
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

/**
 * Overwrite up to three whole rows or columns of @p m (or, rarely, all
 * of it) with one of @p lo, @p hi, -@p hi or 0: lines of the
 * exactness bound's extreme terms and all-zero rows and columns.
 */
template <typename T>
void
paintLines(Rng &rng, Matrix<T> &m, T lo, T hi)
{
    if (m.empty() || rng.bernoulli(0.4))
        return;
    const T values[] = {lo, hi, static_cast<T>(-hi), T{0}};
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    if (rng.bernoulli(0.1)) {
        std::fill(m.data().begin(), m.data().end(), values[pick(4)]);
        return;
    }
    for (std::size_t l = 0, lines = 1 + pick(3); l < lines; ++l) {
        const T v = values[pick(4)];
        if (rng.bernoulli(0.5)) {
            const std::size_t c = pick(m.cols());
            for (std::size_t r = 0; r < m.rows(); ++r)
                m(r, c) = v;
        } else {
            const std::size_t r = pick(m.rows());
            std::fill(m.rowPtr(r), m.rowPtr(r) + m.cols(), v);
        }
    }
}

/** A size in [lo, hi] with a 1-in-6 chance of one in [64, 100]: the
 * AVX2 GEMMs tile 4 rows x 8 columns, so small sizes straddle those
 * multiples and the large ones run many whole tiles. */
std::size_t
drawSize(Rng &rng, std::size_t lo, std::size_t hi, std::size_t lane)
{
    if (rng.bernoulli(1.0 / 6.0))
        return static_cast<std::size_t>(rng.uniformInt(64, 100));
    return testprop::edgeSize(rng, lo, hi, lane);
}

template <typename T>
Matrix<T>
sparseMatrix(Rng &rng, std::size_t rows, std::size_t cols,
             std::int64_t lo, std::int64_t hi)
{
    Matrix<T> m(rows, cols);
    const std::vector<T> v =
        testprop::sparseInts<T>(rng, rows * cols, lo, hi);
    std::copy(v.begin(), v.end(), m.data().begin());
    paintLines<T>(rng, m, static_cast<T>(lo), static_cast<T>(hi));
    return m;
}

TEST(KernelsProp, DlzsKPredictionSimdBitExactWithExactOps)
{
    testprop::forEachSeededCase(200, [&](int c, Rng &rng) {
        const std::size_t S = drawSize(rng, 0, 24, 4);
        const std::size_t n = drawSize(rng, 1, 24, 8);
        const std::size_t d = drawSize(rng, 0, 40, 8);
        // int8 -128 times an LZ-0 weight is the largest term, 2^15.
        const MatI8 tokens =
            sparseMatrix<std::int8_t>(rng, S, n, -128, 127);
        const LzMatrix wk_lz =
            lzEncodeI8(sparseMatrix<std::int8_t>(rng, n, d, -128, 127));

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
    testprop::forEachSeededCase(200, [&](int c, Rng &rng) {
        // Half the cases take T in 1..5: the unpacked T <= 4 path
        // and the smallest packed T, one whole tile plus one row.
        const std::size_t T =
            rng.bernoulli(0.5)
                ? static_cast<std::size_t>(rng.uniformInt(1, 5))
                : drawSize(rng, 0, 12, 4);
        const std::size_t S = drawSize(rng, 0, 24, 8);
        const std::size_t d = drawSize(rng, 1, 40, 8);
        // Full int16 range: |k| << 16 reaches 2^31 at INT16_MIN.
        const LzMatrix q_lz = lzEncodeI16(
            sparseMatrix<std::int16_t>(rng, T, d, -32768, 32767));
        const MatI16 k_hat =
            sparseMatrix<std::int16_t>(rng, S, d, -32768, 32767);

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

TEST(KernelsProp, DlzsPredictSameAtBothLevelsOnEngineWorkloads)
{
    // Prefill, plain decode, and speculative decode on either side of
    // the 4-row tile: every head's scores, K-hat and tallies.
    const int kinds[][3] = {
        {160, 0, 0}, {0, 300, 1}, {0, 257, 3}, {0, 200, 4}, {0, 129, 5}};
    for (const auto &kind : kinds) {
        ModelWorkloadSpec spec;
        spec.heads = 2;
        spec.seq = kind[0];
        spec.queries = kind[0];
        spec.pastLen = kind[1];
        spec.newTokens = kind[2];
        const ModelWorkload mw = generateModelWorkload(spec);
        for (const AttentionWorkload &w : mw.grid) {
            DlzsPrediction ref, got;
            {
                simd::ScopedLevel lvl(simd::Level::Scalar);
                ref = dlzsPredict(w.tokens, w.wk, w.q);
            }
            {
                simd::ScopedLevel lvl(simd::Level::Avx2);
                got = dlzsPredict(w.tokens, w.wk, w.q);
            }
            const std::size_t T = w.q.rows();
            ASSERT_EQ(ref.scoresHat.rows(), T);
            ASSERT_EQ(got.scoresHat.rows(), T);
            ASSERT_EQ(got.scoresHat.cols(), ref.scoresHat.cols());
            for (std::size_t i = 0; i < ref.scoresHat.size(); ++i)
                ASSERT_TRUE(sameBitsF(ref.scoresHat.data()[i],
                                      got.scoresHat.data()[i]))
                    << "T=" << T << " elem " << i;
            EXPECT_EQ(ref.kHat.data(), got.kHat.data()) << "T=" << T;
            EXPECT_EQ(ref.kShift, got.kShift) << "T=" << T;
            expectSameOps(ref.ops, got.ops, static_cast<int>(T));
        }
    }
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
