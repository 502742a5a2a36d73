#include "core/sufa.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "tensor/kernels.h"

namespace sofa {

namespace {

/** Single-accumulator dot product (the pre-port scalar baseline). */
double
scoreScalar(const float *qr, const float *kr, std::size_t d)
{
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c)
        acc += static_cast<double>(qr[c]) * kr[c];
    return acc;
}

/** Q.K inner product per cfg: blocked kernel or scalar baseline. */
double
score(const float *qr, const float *kr, std::size_t d,
      const SufaConfig &cfg)
{
    return cfg.blockedDot ? dotBlock(qr, kr, d)
                          : scoreScalar(qr, kr, d);
}

} // namespace

void
sufaAttentionRows(const MatF &q, const MatF &k, const MatF &v,
                  const SelectionList &selected, const SufaConfig &cfg,
                  std::size_t row_begin, std::size_t row_end,
                  MatF *output, OpCounter *ops_out,
                  std::int64_t *violations, std::int64_t *tiles)
{
    SOFA_ASSERT(q.cols() == k.cols());
    SOFA_ASSERT(k.rows() == v.rows());
    SOFA_ASSERT(selected.size() == q.rows());
    SOFA_ASSERT(cfg.blockCols > 0);
    SOFA_ASSERT(output->rows() == q.rows());
    SOFA_ASSERT(output->cols() == q.cols());
    SOFA_ASSERT(row_end <= q.rows());

    const std::size_t d = q.cols();
    // Tally into locals and add to the caller's slots once at the end:
    // the engine hands neighbouring row-tile units adjacent slots, and
    // bumping them per key would bounce that cache line between the
    // cores running those units (false sharing).
    OpCounter ops;
    std::int64_t viol = 0;
    std::int64_t tile_count = 0;

    std::vector<double> acc(d);
    for (std::size_t r = row_begin; r < row_end; ++r) {
        Selection order = selected[r];
        if (order.empty())
            continue;
        if (cfg.order == SufaOrder::Ascending)
            std::reverse(order.begin(), order.end());

        const float *qr = q.rowPtr(r);
        std::fill(acc.begin(), acc.end(), 0.0);
        double m = -1e30;
        double l = 0.0;
        bool first = true;

        const std::size_t n = order.size();
        const std::size_t Bc = static_cast<std::size_t>(cfg.blockCols);
        for (std::size_t t0 = 0; t0 < n; t0 += Bc) {
            const std::size_t te = std::min(n, t0 + Bc);
            ++tile_count;
            for (std::size_t t = t0; t < te; ++t) {
                const int key = order[t];
                const double s = score(qr, k.rowPtr(key), d, cfg);
                ops.mulN(static_cast<std::int64_t>(d));
                ops.addN(static_cast<std::int64_t>(d) - 1);

                if (first) {
                    // Scheduler guarantees the first element is the
                    // predicted block max; no comparison needed.
                    m = s;
                    l = 1.0; // exp(s - m) = 1
                    const float *vr = v.rowPtr(key);
                    for (std::size_t c = 0; c < d; ++c)
                        acc[c] = vr[c];
                    ops.expN(1);
                    ops.addN(1);
                    first = false;
                    continue;
                }

                if (cfg.order == SufaOrder::Descending) {
                    // Max-ensuring circuit: one compare against the
                    // cached max (mode-1 check, Section IV-D).
                    ops.cmpN(1);
                    if (s > m) {
                        // Misprediction: rescale like FA-2 would.
                        ++viol;
                        const double f = std::exp(m - s);
                        l *= f;
                        for (std::size_t c = 0; c < d; ++c)
                            acc[c] *= f;
                        ops.expN(1);
                        ops.mulN(1 + static_cast<std::int64_t>(d));
                        m = s;
                    }
                    // Eq. (2): l += exp(s - m); O += p * V.
                    const double p = std::exp(s - m);
                    l += p;
                    ops.addN(1); // s - m
                    ops.expN(1);
                    ops.addN(1); // l update: exactly one add
                    const float *vr = v.rowPtr(key);
                    for (std::size_t c = 0; c < d; ++c)
                        acc[c] += p * vr[c];
                    ops.mulN(static_cast<std::int64_t>(d));
                    ops.addN(static_cast<std::int64_t>(d));
                } else {
                    // Ascending, Eq. (1) of Fig. 10: each new element
                    // becomes the max, so l is rescaled every step —
                    // l = exp(x^(j-1) - x^(j)) * l + 1, costing one
                    // Exp, one Mul and one Add (vs descending's Exp +
                    // Add). The O rescale by the same factor rides
                    // the SA-2 partial-sum flow (the AP module folds
                    // it into the accumulation path, Section IV-D),
                    // so it adds no op-count beyond the d MACs both
                    // orders pay.
                    ops.cmpN(1); // max-ensure still checks
                    double m_new = std::max(m, s);
                    const double f = std::exp(m - m_new);
                    if (s < m)
                        ++viol; // out-of-order predict
                    const double p = std::exp(s - m_new);
                    l = l * f + p; // p == 1 under correct ordering
                    ops.expN(1);
                    ops.mulN(1); // the extra multiplication
                    ops.addN(1);
                    if (s < m)
                        ops.expN(1); // misprediction: p != 1
                    const float *vr = v.rowPtr(key);
                    for (std::size_t c = 0; c < d; ++c)
                        acc[c] = acc[c] * f + p * vr[c];
                    ops.mulN(static_cast<std::int64_t>(d));
                    ops.addN(static_cast<std::int64_t>(d));
                    m = m_new;
                }
            }
            // Tile synchronization point (line 6 of Fig. 10(b)):
            // modeled as bookkeeping, no arithmetic.
        }

        const double inv = 1.0 / l;
        ops.divN(1);
        float *out = output->rowPtr(r);
        for (std::size_t c = 0; c < d; ++c)
            out[c] = static_cast<float>(acc[c] * inv);
        ops.mulN(static_cast<std::int64_t>(d));
    }
    *ops_out += ops;
    *violations += viol;
    *tiles += tile_count;
}

SufaResult
sufaAttention(const MatF &q, const MatF &k, const MatF &v,
              const SelectionList &selected, const SufaConfig &cfg)
{
    SOFA_ASSERT(selected.size() == q.rows());
    const std::size_t T = q.rows();
    const std::size_t d = q.cols();
    SufaResult res;
    res.output = MatF(T, d, 0.0f);
    if (T == 0)
        return res;

    // Chunk query rows across the pool; counters merge with integer
    // addition, so totals are bit-exact for any thread count. Per-row
    // cost ~ kept * d MACs (estimate kept from the first row).
    const double row_cost =
        2.0 * static_cast<double>(selected[0].size()) *
        static_cast<double>(d);
    const std::size_t grain = grainForRowCost(row_cost);
    const std::size_t nchunks = (T + grain - 1) / grain;
    std::vector<OpCounter> chunk_ops(nchunks);
    std::vector<std::int64_t> chunk_viol(nchunks, 0);
    std::vector<std::int64_t> chunk_tiles(nchunks, 0);
    ThreadPool::instance().parallelFor(
        T, grain, [&](std::size_t begin, std::size_t end, int chunk) {
            const std::size_t c = static_cast<std::size_t>(chunk);
            sufaAttentionRows(q, k, v, selected, cfg, begin, end,
                              &res.output, &chunk_ops[c],
                              &chunk_viol[c], &chunk_tiles[c]);
        });
    for (std::size_t c = 0; c < nchunks; ++c) {
        res.ops += chunk_ops[c];
        res.maxViolations += chunk_viol[c];
        res.tiles += chunk_tiles[c];
    }
    return res;
}

SufaResult
sparseFlash2(const MatF &q, const MatF &k, const MatF &v,
             const SelectionList &selected, int block_cols)
{
    SOFA_ASSERT(q.cols() == k.cols());
    SOFA_ASSERT(selected.size() == q.rows());
    SOFA_ASSERT(block_cols > 0);

    const std::size_t T = q.rows();
    const std::size_t d = q.cols();
    SufaResult res;
    res.output = MatF(T, d, 0.0f);
    OpCounter &ops = res.ops;

    std::vector<double> acc(d);
    for (std::size_t r = 0; r < T; ++r) {
        // Without sorting information the kept keys arrive in key
        // (memory) order.
        Selection order = selected[r];
        std::sort(order.begin(), order.end());
        if (order.empty())
            continue;

        const float *qr = q.rowPtr(r);
        std::fill(acc.begin(), acc.end(), 0.0);
        double m = -1e30;
        double l = 0.0;

        const std::size_t n = order.size();
        const std::size_t Bc = static_cast<std::size_t>(block_cols);
        for (std::size_t t0 = 0; t0 < n; t0 += Bc) {
            const std::size_t te = std::min(n, t0 + Bc);
            const std::size_t bc = te - t0;
            ++res.tiles;

            std::vector<double> s(bc);
            double tile_max = -1e30;
            for (std::size_t t = t0; t < te; ++t) {
                s[t - t0] = dotBlock(qr, k.rowPtr(order[t]), d);
                tile_max = std::max(tile_max, s[t - t0]);
            }
            ops.mulN(static_cast<std::int64_t>(bc * d));
            ops.addN(static_cast<std::int64_t>(bc * (d - 1)));
            ops.cmpN(static_cast<std::int64_t>(bc - 1) + 1);

            const double m_new = std::max(m, tile_max);
            if (m_new > m && l > 0.0) {
                const double f = std::exp(m - m_new);
                l *= f;
                for (std::size_t c = 0; c < d; ++c)
                    acc[c] *= f;
            }
            // Without sorting information the engine cannot predict
            // whether a tile will move the max, so the refresh path
            // (one Exp + one Mul on l; the O rescale rides SA-2 as
            // in SU-FA) executes every tile — the "repeated
            // calculations among Tc blocks" of Fig. 5.
            ops.expN(1);
            ops.mulN(1);
            m = m_new;

            for (std::size_t j = 0; j < bc; ++j) {
                const double p = std::exp(s[j] - m);
                l += p;
                const float *vr = v.rowPtr(order[t0 + j]);
                for (std::size_t c = 0; c < d; ++c)
                    acc[c] += p * vr[c];
            }
            ops.addN(static_cast<std::int64_t>(bc));
            ops.expN(static_cast<std::int64_t>(bc));
            ops.addN(static_cast<std::int64_t>(bc));
            ops.mulN(static_cast<std::int64_t>(bc * d));
            ops.addN(static_cast<std::int64_t>(bc * d));
        }

        const double inv = 1.0 / l;
        ops.divN(1);
        float *out = res.output.rowPtr(r);
        for (std::size_t c = 0; c < d; ++c)
            out[c] = static_cast<float>(acc[c] * inv);
        ops.mulN(static_cast<std::int64_t>(d));
    }
    return res;
}

OpCounter
sufaAnalyticOps(std::int64_t rows, std::int64_t kept, int head_dim,
                SufaOrder order)
{
    OpCounter ops;
    const std::int64_t n = kept;
    const std::int64_t d = head_dim;
    // QK^T over kept keys.
    ops.mulN(rows * n * d);
    ops.addN(rows * n * (d - 1));
    if (order == SufaOrder::Descending) {
        // Per element: 1 cmp (max ensure), 1 sub, 1 exp, 1 add for l
        // (Eq. (2)), d mul + d add for O.
        ops.cmpN(rows * (n - 1));
        ops.addN(rows * (2 * n));
        ops.expN(rows * n);
        ops.mulN(rows * n * d);
        ops.addN(rows * n * d);
    } else {
        // Ascending (Eq. (1)): the l rescale adds one Mul per
        // element; O rescale folded into the SA-2 flow.
        ops.cmpN(rows * (n - 1));
        ops.addN(rows * (2 * n));
        ops.expN(rows * n);
        ops.mulN(rows * (n + n * d));
        ops.addN(rows * n * d);
    }
    ops.divN(rows);
    ops.mulN(rows * d);
    return ops;
}

OpCounter
sparseFa2AnalyticOps(std::int64_t rows, std::int64_t kept,
                     int head_dim, int block_cols)
{
    OpCounter ops;
    const std::int64_t n = kept;
    const std::int64_t d = head_dim;
    const std::int64_t Bc = block_cols;
    const std::int64_t Tc = ceilDiv(std::max<std::int64_t>(n, 1), Bc);
    // QK^T + PV MACs plus the unconditional per-tile max-refresh
    // path (1 exp + 1 mul on l per tile).
    ops.mulN(rows * (n * d + Tc + n * d));
    ops.addN(rows * (n * (d - 1) + 2 * n + n * d));
    ops.cmpN(rows * n); // rowmax per tile + running compare
    ops.expN(rows * (n + Tc));
    ops.divN(rows);
    ops.mulN(rows * d);
    return ops;
}

} // namespace sofa
