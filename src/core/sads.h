/**
 * @file
 * Sphere-search Aided Distributed Sorting (SADS) — Section III-B.
 *
 * SADS exploits the Distributed Cluster Effect (DCE): in the Type-I /
 * Type-II score distributions that make up >95% of attention rows
 * (Fig. 8), every sub-segment of a row contains a representative share
 * of the row's large values. A row of length S is therefore split
 * into n sub-segments, each of which picks its local top-(k/n) with an
 * iterative 16-to-4 bitonic sorting core plus an adaptive clipping
 * filter (threshold = max(runningMax - r, current low bound)); a
 * sphere-search refinement then repairs boundary mistakes by swapping
 * the selected set's minimum against the excluded set's maximum for a
 * bounded number of iterations.
 *
 * Cost model: comparisons are tallied for the clip filter (one per
 * element), the bitonic core (one 16-to-4 pass per 12-input sorter
 * chunk with at least one survivor), and the refinement loop (1 + n
 * per step), so the reduction vs a full-row bitonic sort (the
 * vanilla top-k stage) is measurable. The functional model charges
 * those tallies in closed form and computes what the sorter ends
 * with directly: each segment's exact top-(k/n) survivors and the
 * next k/n, in the SADS order (value descending, -0 equal to +0,
 * then index ascending). Score rows must be NaN-free.
 *
 * Units: comparisons counted via OpCounter (cmps); quality is
 * top-k recall and covered softmax mass, both fractions in [0,1].
 * Assumes score rows follow the Fig. 8 Type-I/II mixture (the DCE);
 * Type-III rows degrade recall, not correctness.
 */

#ifndef SOFA_CORE_SADS_H
#define SOFA_CORE_SADS_H

#include <cstdint>
#include <vector>

#include "attention/opcount.h"
#include "sparsity/topk.h"
#include "tensor/matrix.h"

namespace sofa {

/** SADS configuration (per layer; the DSE tunes segments). */
struct SadsConfig
{
    int segments = 4;        ///< n sub-segments per row
    int refineIters = 8;     ///< DSn sphere-search iterations
    /**
     * Clipping radius as a fraction of the running (max - min) score
     * span; elements below runningMax - radius are blocked (replaced
     * by zero in hardware to kill switching activity). A value >= 1
     * disables clipping losses.
     */
    double radiusFrac = 1.0;
    int sorterInputs = 12;   ///< fresh inputs per 16-to-4 pass
    /** Comparators per 16-to-4 pass after pruning the ones that
     * would order the 3rd..k-th outputs (Fig. 13 shaded area). */
    int sorterComparators = 50;
};

/** Selection for one row plus bookkeeping for SU-FA and stats. */
struct SadsRow
{
    Selection selected;      ///< k indices, descending predicted score
    int top1 = -1;           ///< predicted-argmax index
    int top2 = -1;           ///< second-largest index
    std::int64_t clipped = 0; ///< elements blocked by the clip filter
};

/** Result over a whole score matrix. */
struct SadsResult
{
    std::vector<SadsRow> rows;
    OpCounter ops;

    SelectionList selections() const;
};

/**
 * Run SADS top-k over every row of @p scores. Rows are independent
 * and are chunked across the thread pool; per-chunk op tallies are
 * merged with integer addition, so results and counts are bit-exact
 * for any thread count.
 *
 * @param scores predicted scores (A-hat from DLZS) [T x S]
 * @param k      values to keep per row
 */
SadsResult sadsTopK(const MatF &scores, int k,
                    const SadsConfig &cfg = {});

/**
 * SADS over the row range [row_begin, row_end) only — the work-item
 * granularity the stage engine shards over (batch, head, row-tile).
 * Writes rows into *rows (pre-sized to scores.rows()) and tallies
 * into *ops. Per-row behaviour is identical to sadsTopK.
 */
void sadsTopKRows(const MatF &scores, int k, const SadsConfig &cfg,
                  std::size_t row_begin, std::size_t row_end,
                  std::vector<SadsRow> *rows, OpCounter *ops);

/**
 * Comparison count of the vanilla whole-row top-k (full bitonic sort)
 * for the same shape, for reduction ratios.
 */
std::int64_t vanillaSortComparisons(std::int64_t rows,
                                    std::int64_t seq);

} // namespace sofa

#endif // SOFA_CORE_SADS_H
