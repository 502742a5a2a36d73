#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/threadpool.h"
#include "tensor/kernels.h"
#include "testutil.h"

namespace sofa {
namespace {

using testutil::randomMat;

/** (m, n, k) shapes chosen to straddle every blocking boundary:
 * single rows/columns, sizes far below / at / just past the panel and
 * unroll widths, and empty dimensions. */
struct Shape
{
    std::size_t m, n, k;
};

const Shape kShapes[] = {
    {1, 1, 1},     {1, 7, 5},    {5, 1, 7},     {7, 5, 1},
    {17, 33, 65},  {64, 64, 64}, {129, 65, 33}, {128, 256, 64},
    {3, 530, 9},   {2, 2, 1030}, {0, 5, 3},     {5, 0, 3},
    {5, 3, 0},
};

// Registered before any test that can engage the thread pool so the
// fork-based death machinery never runs with live worker threads.
TEST(KernelsDeath, ShapeMismatchPanics)
{
    MatF a(2, 3), b(2, 2);
    EXPECT_DEATH(matmulBlocked(a, b), "assertion");
    EXPECT_DEATH(matmulNTBlocked(a, b), "assertion");
}

TEST(KernelsBlocked, MatmulNTMatchesNaiveAcrossShapes)
{
    for (const auto &s : kShapes) {
        const MatF a = randomMat(s.m, s.k, 1);
        const MatF b = randomMat(s.n, s.k, 2);
        const MatF naive = matmulNTNaive(a, b);
        const MatF blocked = matmulNTBlocked(a, b);
        ASSERT_TRUE(testutil::MatrixNear(blocked, naive, 1e-5))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
}

TEST(KernelsBlocked, MatmulMatchesNaiveAcrossShapes)
{
    for (const auto &s : kShapes) {
        const MatF a = randomMat(s.m, s.k, 3);
        const MatF b = randomMat(s.k, s.n, 4);
        const MatF naive = matmulNaive(a, b);
        const MatF blocked = matmulBlocked(a, b);
        ASSERT_TRUE(testutil::MatrixNear(blocked, naive, 1e-5))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
}

TEST(KernelsBlocked, TransposeMatchesNaiveExactly)
{
    for (const auto &s : kShapes) {
        const MatF a = randomMat(s.m, s.n, 5);
        EXPECT_EQ(transposeBlocked(a), transposeNaive(a));
    }
    // Tile-straddling rectangle.
    const MatF a = randomMat(100, 37, 6);
    EXPECT_EQ(transposeBlocked(a), transposeNaive(a));
}

TEST(KernelsThreaded, TiledIsBitExactVsBlocked)
{
    // Large enough that the pool's parallel path engages whenever
    // more than one thread is available; every per-row computation is
    // identical to the serial blocked kernel, so results must be
    // bit-exact equal, not merely near.
    const MatF a = randomMat(257, 96, 7);
    const MatF b = randomMat(193, 96, 8);
    EXPECT_EQ(matmulNTTiled(a, b), matmulNTBlocked(a, b));

    const MatF c = randomMat(257, 96, 9);
    const MatF d = randomMat(96, 193, 10);
    EXPECT_EQ(matmulTiled(c, d), matmulBlocked(c, d));
}

TEST(KernelsThreaded, SerialModeGivesIdenticalResults)
{
    // Same-process determinism check: forcing the serial path must
    // reproduce the (potentially threaded) result bit for bit.
    const MatF a = randomMat(300, 64, 11);
    const MatF b = randomMat(300, 64, 12);
    const MatF threaded = matmulNT(a, b);
    MatF serial;
    {
        ThreadPool::ScopedSerial guard;
        serial = matmulNT(a, b);
    }
    EXPECT_EQ(threaded, serial);
}

TEST(KernelsThreaded, ExplicitPoolShardsAreDeterministic)
{
    // A dedicated 4-thread pool (real threads even on 1-core
    // machines): repeated runs of the same sharded sum must agree.
    ThreadPool pool(4);
    const std::size_t n = 10007;
    auto run = [&] {
        // One slot per chunk of the fixed grid (ceil(n / grain)), not
        // per thread: the chunk index is what the body receives.
        const std::size_t grain = 100;
        std::vector<std::int64_t> partial((n + grain - 1) / grain, 0);
        pool.parallelFor(n, grain,
                         [&](std::size_t b, std::size_t e, int chunk) {
                             std::int64_t s = 0;
                             for (std::size_t i = b; i < e; ++i)
                                 s += static_cast<std::int64_t>(i);
                             partial[static_cast<std::size_t>(chunk)] =
                                 s;
                         });
        std::int64_t total = 0;
        for (const auto p : partial)
            total += p;
        return total;
    };
    const std::int64_t expected =
        static_cast<std::int64_t>(n) * (n - 1) / 2;
    EXPECT_EQ(run(), expected);
    EXPECT_EQ(run(), expected);
}

TEST(DotBlock, MatchesSerialDotProduct)
{
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{3},
          std::size_t{4}, std::size_t{7}, std::size_t{64},
          std::size_t{1001}}) {
        const MatF a = randomMat(1, n, 13);
        const MatF b = randomMat(1, n, 14);
        double ref = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            ref += static_cast<double>(a(0, i)) * b(0, i);
        const double got = dotBlock(a.rowPtr(0), b.rowPtr(0), n);
        EXPECT_NEAR(got, ref, 1e-9 * (1.0 + std::abs(ref))) << n;
    }
}

TEST(MinmaxBlock, MatchesSerialScanExactly)
{
    // min/max are order-independent: the blocked scan must be
    // bit-identical to a sequential one at every lane boundary.
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{64},
          std::size_t{1001}}) {
        const MatF a = randomMat(1, n, 21);
        float ref_mn = a(0, 0), ref_mx = a(0, 0);
        for (std::size_t i = 1; i < n; ++i) {
            ref_mn = std::min(ref_mn, a(0, i));
            ref_mx = std::max(ref_mx, a(0, i));
        }
        float mn = 0.0f, mx = 0.0f;
        minmaxBlock(a.rowPtr(0), n, &mn, &mx);
        EXPECT_EQ(mn, ref_mn) << n;
        EXPECT_EQ(mx, ref_mx) << n;
    }
}

TEST(MinmaxBlock, ConstantAndExtremeRows)
{
    const MatF flat(1, 37, 2.5f);
    float mn = 0.0f, mx = 0.0f;
    minmaxBlock(flat.rowPtr(0), 37, &mn, &mx);
    EXPECT_EQ(mn, 2.5f);
    EXPECT_EQ(mx, 2.5f);

    MatF spiked(1, 37, 0.0f);
    spiked(0, 36) = -7.0f; // extremes in the scalar tail
    minmaxBlock(spiked.rowPtr(0), 37, &mn, &mx);
    EXPECT_EQ(mn, -7.0f);
    EXPECT_EQ(mx, 0.0f);
}

} // namespace
} // namespace sofa
