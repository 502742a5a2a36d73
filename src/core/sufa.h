/**
 * @file
 * Sorted-Updating FlashAttention (SU-FA) — Section III-C.
 *
 * Classic FlashAttention must refresh the running row max across
 * tiles, paying exponentials and rescales each time the max moves.
 * SU-FA consumes the top-k stage's sorting information instead: the
 * selected keys are processed in *descending* predicted-score order,
 * so the first processed element is (almost always) the true max and
 * the running max never changes — each subsequent element costs one
 * Exp and one Add (Eq. (2) of Fig. 10). The *ascending* order also
 * removes the max search but still pays a rescale multiply per step
 * (Eq. (1)), which is why descending wins (~25% vs traditional FA,
 * ~11% vs ascending).
 *
 * Because the prediction (DLZS) is approximate, the predicted max can
 * be wrong; the max-ensuring circuit (Section IV-D) compares every
 * computed score against the cached max and, on violation, performs a
 * mode-1 rescale exactly like FA-2 would. Correctness therefore never
 * depends on prediction quality, only the op count does.
 *
 * Units: OpCounter exps/muls/adds per *executed* kernel (skipped
 * keys cost nothing); selections are key indices per query row.
 * Assumes selections arrive roughly in descending predicted-score
 * order — violations are counted and repaired, results stay exact.
 */

#ifndef SOFA_CORE_SUFA_H
#define SOFA_CORE_SUFA_H

#include <cstdint>
#include <vector>

#include "attention/opcount.h"
#include "attention/reference.h"
#include "sparsity/topk.h"
#include "tensor/matrix.h"

namespace sofa {

/** Update order of the SU-FA recurrence. */
enum class SufaOrder { Descending, Ascending };

/** SU-FA configuration. */
struct SufaConfig
{
    SufaOrder order = SufaOrder::Descending;
    int blockCols = 16; ///< Bc: selected keys processed per tile
    /**
     * Compute the per-key Q.K inner products with the register-tiled
     * dotBlock kernel (tensor/kernels) instead of a single-
     * accumulator scalar loop. Same op counts; values differ only by
     * float summation order. The scalar path is kept as the measured
     * baseline for the kernel-port speedup in bench_engine.
     */
    bool blockedDot = true;
};

/** SU-FA execution result. */
struct SufaResult
{
    MatF output;            ///< O [T x d]
    OpCounter ops;
    std::int64_t maxViolations = 0; ///< max-ensure fallbacks taken
    std::int64_t tiles = 0;         ///< tiles processed
};

/**
 * Compute sparse attention over the per-row selections with the SU-FA
 * recurrence. Rows are independent and chunked across the thread
 * pool; per-chunk op tallies merge with integer addition, so outputs
 * and counts are bit-exact for any thread count.
 *
 * @param q        queries [T x d]
 * @param k        keys    [S x d]
 * @param v        values  [S x d]
 * @param selected per-row kept key indices, ordered by *predicted*
 *                 score descending (as SADS emits them)
 */
SufaResult sufaAttention(const MatF &q, const MatF &k, const MatF &v,
                         const SelectionList &selected,
                         const SufaConfig &cfg = {});

/**
 * SU-FA over the query-row range [row_begin, row_end) only — the
 * work-item granularity the stage engine shards over (batch, head,
 * row-tile). Writes rows of *output (pre-sized [T x d], zeroed) and
 * accumulates into *ops / *violations / *tiles. Per-row behaviour is
 * identical to sufaAttention.
 */
void sufaAttentionRows(const MatF &q, const MatF &k, const MatF &v,
                       const SelectionList &selected,
                       const SufaConfig &cfg, std::size_t row_begin,
                       std::size_t row_end, MatF *output,
                       OpCounter *ops, std::int64_t *violations,
                       std::int64_t *tiles);

/**
 * Sparse FA-2 baseline: same selections, but processed in key order
 * with the full FA-2 running-max machinery (what a dynamic-sparsity
 * accelerator without cross-stage information must do).
 */
SufaResult sparseFlash2(const MatF &q, const MatF &k, const MatF &v,
                        const SelectionList &selected,
                        int block_cols = 16);

/**
 * Closed-form per-row op counts of the three schemes over n kept
 * keys (used for complexity sweeps at sizes too large to execute).
 */
OpCounter sufaAnalyticOps(std::int64_t rows, std::int64_t kept,
                          int head_dim, SufaOrder order);
OpCounter sparseFa2AnalyticOps(std::int64_t rows, std::int64_t kept,
                               int head_dim, int block_cols);

} // namespace sofa

#endif // SOFA_CORE_SUFA_H
