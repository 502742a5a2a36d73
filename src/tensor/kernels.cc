#include "tensor/kernels.h"

#include <algorithm>

#include "common/threadpool.h"

namespace sofa {

namespace {

/**
 * Register-tiled float dot product: sixteen independent partial-sum
 * lanes. The fixed-trip inner loop over a small array is the shape
 * GCC/Clang SLP-vectorize into packed FMAs (measured ~3x faster than
 * the same tiling written as separate scalar accumulators, which the
 * vectorizer misses), and the lanes break the serial FP accumulation
 * chain the naive kernel is latency-bound on.
 */
float
dotf16(const float *a, const float *b, std::size_t n)
{
    float s[16] = {0.0f};
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        for (int l = 0; l < 16; ++l)
            s[l] += a[i + l] * b[i + l];
    float tot = 0.0f;
    for (int l = 0; l < 16; ++l)
        tot += s[l];
    for (; i < n; ++i)
        tot += a[i] * b[i];
    return tot;
}

/**
 * Rows [r0, r1) of C = A * B^T. B rows are visited in panels of
 * panelRows(K) so the panel stays in L2 across the whole [r0, r1)
 * sweep; the A row itself lives in L1.
 */
void
matmulNTRows(const MatF &a, const MatF &b, MatF &c, std::size_t r0,
             std::size_t r1)
{
    const std::size_t K = a.cols();
    const std::size_t N = b.rows();
    const std::size_t panel = kernels::panelRows(K);
    for (std::size_t j0 = 0; j0 < N; j0 += panel) {
        const std::size_t j1 = std::min(N, j0 + panel);
        for (std::size_t i = r0; i < r1; ++i) {
            const float *ai = a.rowPtr(i);
            float *ci = c.rowPtr(i);
            for (std::size_t j = j0; j < j1; ++j)
                ci[j] = dotf16(ai, b.rowPtr(j), K);
        }
    }
}

/**
 * Rows [r0, r1) of C = A * B. The classic i-k-j loop streams B and C
 * rows contiguously; blocking over k keeps a kBlockK-row panel of B
 * hot across the row sweep, and unrolling k by four quarters the
 * C-row load/store traffic.
 */
void
matmulRows(const MatF &a, const MatF &b, MatF &c, std::size_t r0,
           std::size_t r1)
{
    const std::size_t K = a.cols();
    const std::size_t N = b.cols();
    for (std::size_t k0 = 0; k0 < K; k0 += kernels::kBlockK) {
        const std::size_t k1 = std::min(K, k0 + kernels::kBlockK);
        for (std::size_t i = r0; i < r1; ++i) {
            const float *ai = a.rowPtr(i);
            float *ci = c.rowPtr(i);
            std::size_t k = k0;
            for (; k + 4 <= k1; k += 4) {
                const float a0 = ai[k];
                const float a1 = ai[k + 1];
                const float a2 = ai[k + 2];
                const float a3 = ai[k + 3];
                const float *b0 = b.rowPtr(k);
                const float *b1 = b.rowPtr(k + 1);
                const float *b2 = b.rowPtr(k + 2);
                const float *b3 = b.rowPtr(k + 3);
                for (std::size_t j = 0; j < N; ++j)
                    ci[j] += (a0 * b0[j] + a1 * b1[j]) +
                             (a2 * b2[j] + a3 * b3[j]);
            }
            for (; k < k1; ++k) {
                const float av = ai[k];
                const float *bk = b.rowPtr(k);
                for (std::size_t j = 0; j < N; ++j)
                    ci[j] += av * bk[j];
            }
        }
    }
}

} // namespace

// dotBlock/minmaxBlock (and their Scalar baselines) live in
// tensor/simd.cc: that translation unit is compiled with
// -ffp-contract=off so the baselines stay bit-identical to the
// runtime-dispatched AVX2 bodies.

MatF
matmulNTNaive(const MatF &a, const MatF &b)
{
    SOFA_ASSERT(a.cols() == b.cols());
    MatF c(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const float *ai = a.rowPtr(i);
        for (std::size_t j = 0; j < b.rows(); ++j) {
            const float *bj = b.rowPtr(j);
            float acc = 0.0f;
            for (std::size_t n = 0; n < a.cols(); ++n)
                acc += ai[n] * bj[n];
            c(i, j) = acc;
        }
    }
    return c;
}

MatF
matmulNaive(const MatF &a, const MatF &b)
{
    SOFA_ASSERT(a.cols() == b.rows());
    MatF c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t n = 0; n < a.cols(); ++n) {
            const float av = a(i, n);
            const float *bn = b.rowPtr(n);
            float *ci = c.rowPtr(i);
            for (std::size_t j = 0; j < b.cols(); ++j)
                ci[j] += av * bn[j];
        }
    }
    return c;
}

MatF
transposeNaive(const MatF &a)
{
    MatF t(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            t(j, i) = a(i, j);
    return t;
}

MatF
matmulNTBlocked(const MatF &a, const MatF &b)
{
    SOFA_ASSERT(a.cols() == b.cols());
    MatF c(a.rows(), b.rows());
    if (!c.empty())
        matmulNTRows(a, b, c, 0, a.rows());
    return c;
}

MatF
matmulBlocked(const MatF &a, const MatF &b)
{
    SOFA_ASSERT(a.cols() == b.rows());
    MatF c(a.rows(), b.cols());
    if (!c.empty())
        matmulRows(a, b, c, 0, a.rows());
    return c;
}

MatF
transposeBlocked(const MatF &a)
{
    MatF t(a.cols(), a.rows());
    const std::size_t tile = kernels::kTransposeTile;
    for (std::size_t i0 = 0; i0 < a.rows(); i0 += tile) {
        const std::size_t i1 = std::min(a.rows(), i0 + tile);
        for (std::size_t j0 = 0; j0 < a.cols(); j0 += tile) {
            const std::size_t j1 = std::min(a.cols(), j0 + tile);
            for (std::size_t i = i0; i < i1; ++i)
                for (std::size_t j = j0; j < j1; ++j)
                    t(j, i) = a(i, j);
        }
    }
    return t;
}

MatF
matmulNTTiled(const MatF &a, const MatF &b)
{
    SOFA_ASSERT(a.cols() == b.cols());
    MatF c(a.rows(), b.rows());
    if (c.empty())
        return c;
    const double row_flops =
        2.0 * static_cast<double>(b.rows()) * a.cols();
    parallelForRows(a.rows(), grainForRowCost(row_flops),
                    [&](std::size_t r0, std::size_t r1) {
                        matmulNTRows(a, b, c, r0, r1);
                    });
    return c;
}

MatF
matmulTiled(const MatF &a, const MatF &b)
{
    SOFA_ASSERT(a.cols() == b.rows());
    MatF c(a.rows(), b.cols());
    if (c.empty())
        return c;
    const double row_flops =
        2.0 * static_cast<double>(a.cols()) * b.cols();
    parallelForRows(a.rows(), grainForRowCost(row_flops),
                    [&](std::size_t r0, std::size_t r1) {
                        matmulRows(a, b, c, r0, r1);
                    });
    return c;
}

} // namespace sofa
