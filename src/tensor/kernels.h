/**
 * @file
 * Register-tiled, cache-blocked tensor kernels behind the canonical
 * matmul/matmulNT/transpose entry points in tensor/matrix.h.
 *
 * The naive seed kernels accumulate each dot product through a single
 * float, which chains every fused multiply-add behind the previous one
 * — the compiler may not reassociate floating-point additions, so the
 * loop runs at FP-add latency instead of throughput. The blocked
 * kernels split each accumulation across several independent partial
 * sums (register tiling: the compiler turns them into SIMD lanes) and
 * iterate in panels sized to keep the streamed operand resident in
 * cache (cache blocking). Partial-sum order is fixed at compile time,
 * so every kernel is deterministic; results differ from the naive
 * kernels only by float rounding (summation order), within the usual
 * MatrixNear tolerances.
 *
 * The Tiled variants additionally shard output rows across the
 * ThreadPool. Each row is computed by exactly the same code as the
 * single-threaded Blocked kernel, so Tiled results are bit-exact
 * equal to Blocked results for any thread count.
 */

#ifndef SOFA_TENSOR_KERNELS_H
#define SOFA_TENSOR_KERNELS_H

#include "tensor/matrix.h"

namespace sofa {

namespace kernels {

/**
 * Compile-time blocking parameters. Chosen for a generic desktop/CI
 * class machine (32 KiB L1D, >= 256 KiB private L2): the panel of the
 * streamed operand is kept near kPanelBytes so it survives in L2
 * across an entire sweep of the other operand's rows.
 */
inline constexpr std::size_t kPanelBytes = 256 * 1024;

/** k-extent of the B panel held hot across rows in matmul. */
inline constexpr std::size_t kBlockK = 256;

/** Square tile edge for the cache-oblivious-ish transpose. */
inline constexpr std::size_t kTransposeTile = 32;

/** Rows of a panel whose rows are @p row_floats floats wide such that
 * the panel stays near kPanelBytes (clamped to [16, 512]). */
constexpr std::size_t
panelRows(std::size_t row_floats)
{
    const std::size_t bytes =
        (row_floats > 0 ? row_floats : 1) * sizeof(float);
    const std::size_t rows = kPanelBytes / bytes;
    return rows < 16 ? 16 : (rows > 512 ? 512 : rows);
}

} // namespace kernels

/**
 * Tiled dot product in double precision: eight independent partial
 * sums over @p n elements. Shared by the flash kernels (per-row
 * Q·K^T) and masked reference attention. Runtime-dispatched to an
 * explicit AVX2 body (tensor/simd.h) that keeps the same eight
 * double lanes and reduction order, so the result is bit-identical
 * to the Scalar baseline at every dispatch level.
 */
double dotBlock(const float *a, const float *b, std::size_t n);

/** The scalar baseline dotBlock dispatches to (and the benches and
 * property tests compare the SIMD path against). */
double dotBlockScalar(const float *a, const float *b, std::size_t n);

/**
 * Blocked min/max scan over @p n floats in eight independent lanes
 * (the SIMD-friendly shape of the SADS threshold-updating scan).
 * min/max are order-independent, so the result is bit-identical to a
 * sequential scan for any n >= 1. Runtime-dispatched like dotBlock;
 * the AVX2 body's vminps/vmaxps match the scalar ternaries bit for
 * bit (including NaN handling).
 */
void minmaxBlock(const float *a, std::size_t n, float *min_out,
                 float *max_out);

/** Scalar baseline for minmaxBlock. */
void minmaxBlockScalar(const float *a, std::size_t n, float *min_out,
                       float *max_out);

/** @name Naive seed kernels (dense; baseline for benches and tests).
 * Triple loops with single-accumulator dot products, exactly the
 * arithmetic order of the original seed implementation. @{ */
MatF matmulNaive(const MatF &a, const MatF &b);
MatF matmulNTNaive(const MatF &a, const MatF &b);
MatF transposeNaive(const MatF &a);
/** @} */

/** @name Single-threaded blocked kernels. @{ */
MatF matmulBlocked(const MatF &a, const MatF &b);
MatF matmulNTBlocked(const MatF &a, const MatF &b);
MatF transposeBlocked(const MatF &a);
/** @} */

/** @name Blocked + row-sharded across the thread pool.
 * Bit-exact equal to the Blocked variants for any thread count; these
 * back the canonical matmul/matmulNT in tensor/matrix.h. @{ */
MatF matmulTiled(const MatF &a, const MatF &b);
MatF matmulNTTiled(const MatF &a, const MatF &b);
/** @} */

} // namespace sofa

#endif // SOFA_TENSOR_KERNELS_H
