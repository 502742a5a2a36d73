#include "core/sads.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "common/bits.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace sofa {

SelectionList
SadsResult::selections() const
{
    SelectionList out;
    out.reserve(rows.size());
    for (const auto &r : rows)
        out.push_back(r.selected);
    return out;
}

namespace {

/**
 * A candidate as one integer whose ascending order is SADS selection
 * order: value descending (-0 equal to +0), then index ascending.
 * The high word holds the value's bits flipped into a descending
 * total order, the low word the column index, so the per-segment
 * partitions, the row sort and the refinement test are all plain
 * integer compares. Rows must be NaN-free: NaN has no place in the
 * order.
 */
using Key = std::uint64_t;

/** High word of a key: equal for equal values, smaller for larger. */
inline std::uint32_t
valueRank(float v)
{
    std::uint32_t u;
    std::memcpy(&u, &v, sizeof u);
    if (u == 0x80000000u) // -0 ranks with +0
        u = 0;
    return (u & 0x80000000u) ? u : (~u & 0x7FFFFFFFu);
}

inline Key
makeKey(float v, int index)
{
    return (static_cast<Key>(valueRank(v)) << 32) |
           static_cast<std::uint32_t>(index);
}

inline std::uint32_t
keyRank(Key key)
{
    return static_cast<std::uint32_t>(key >> 32);
}

inline int
keyIndex(Key key)
{
    return static_cast<int>(static_cast<std::uint32_t>(key));
}

/** Buffers reused across every row and segment of one call. */
struct Scratch
{
    std::vector<Key> survivors;      ///< one segment's survivors
    std::vector<std::int32_t> chunk; ///< clip-filter output, one chunk
    std::vector<float> best;         ///< min-heap: segment's m best
    std::vector<Key> selected;       ///< row: every segment's top-m
    std::vector<Key> excluded;       ///< row: next-m's + trim overflow
};

/**
 * Adaptive clipping (Threshold Updating unit) over one segment, one
 * sorter chunk at a time. The threshold max(runningMax - r, lowBound)
 * only advances after a chunk is merged into the top-m buffer, so it
 * is constant across a chunk and the filter is one SIMD compare +
 * compress sweep (tensor/simd.h) whose survivor order matches the
 * scalar left-to-right filter. lowBound is the minimum of the full
 * top-m buffer, i.e. the m-th best survivor value so far, tracked in
 * a size-m min-heap. Appends the survivors to s.survivors, charges
 * one 16-to-4 pass per non-empty chunk, returns the clipped count.
 */
std::int64_t
clipSegment(const float *row, int lo, int hi, int m,
            const SadsConfig &cfg, float row_span, OpCounter &ops,
            Scratch &s)
{
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    const float radius = static_cast<float>(cfg.radiusFrac) * row_span;
    float running_max = kNegInf;
    float low_bound = kNegInf;
    std::vector<float> &best = s.best;
    best.clear();
    std::int64_t clipped = 0;
    std::int64_t passes = 0;
    for (int pos = lo, chunk = 0; pos < hi; pos += chunk) {
        chunk = std::min(cfg.sorterInputs, hi - pos);
        const float threshold =
            running_max > kNegInf
                ? std::max(running_max - radius, low_bound)
                : kNegInf;
        const std::size_t kept = simd::scanSurvivors(
            row + pos, static_cast<std::size_t>(chunk), threshold,
            s.chunk.data());
        clipped += chunk - static_cast<std::int64_t>(kept);
        if (kept == 0)
            continue;
        ++passes;
        for (std::size_t i = 0; i < kept; ++i) {
            const int idx = pos + s.chunk[i];
            const float v = row[idx];
            s.survivors.push_back(makeKey(v, idx));
            running_max = std::max(running_max, v);
            if (static_cast<int>(best.size()) < m) {
                best.push_back(v);
                std::push_heap(best.begin(), best.end(),
                               std::greater<float>());
            } else if (v > best.front()) {
                std::pop_heap(best.begin(), best.end(),
                              std::greater<float>());
                best.back() = v;
                std::push_heap(best.begin(), best.end(),
                               std::greater<float>());
            }
        }
        if (static_cast<int>(best.size()) == m)
            low_bound = best.front();
    }
    ops.cmpN(passes * cfg.sorterComparators);
    return clipped;
}

/**
 * One sub-segment's local selection. The iterative 16-to-4 core
 * merges each chunk's survivors into a top-m buffer and spills the
 * overflow as excluded candidates, so what it ends with is exactly
 * the segment's top-m survivors, and the m strongest spilled ones
 * (all the refinement keeps) are exactly the next m. Both come from
 * two partitions here; the sorter's cost is charged in closed form.
 * Appends the top-m to s.selected and the next m to s.excluded, both
 * unordered, and returns the clipped count.
 */
std::int64_t
segmentTopM(const float *row, int lo, int hi, int m,
            const SadsConfig &cfg, float row_span, OpCounter &ops,
            Scratch &s)
{
    const int len = hi - lo;
    if (len <= 0 || m <= 0)
        return 0;
    ops.cmpN(len); // clip filter compare, one per element
    std::vector<Key> &cand = s.survivors;
    cand.clear();
    std::int64_t clipped = 0;
    if (cfg.radiusFrac < 1.0) {
        clipped = clipSegment(row, lo, hi, m, cfg, row_span, ops, s);
    } else {
        // Clipping off: everything survives, every chunk is a pass.
        ops.cmpN(ceilDiv(len, cfg.sorterInputs) *
                 cfg.sorterComparators);
        cand.resize(static_cast<std::size_t>(len));
        for (int i = 0; i < len; ++i)
            cand[static_cast<std::size_t>(i)] =
                makeKey(row[lo + i], lo + i);
    }
    const std::size_t top =
        std::min(static_cast<std::size_t>(m), cand.size());
    const std::size_t next =
        std::min(static_cast<std::size_t>(m), cand.size() - top);
    const auto first = cand.begin();
    if (cand.size() > top + next)
        std::nth_element(first, first + (top + next), cand.end());
    if (next > 0)
        std::nth_element(first, first + top, first + (top + next));
    s.selected.insert(s.selected.end(), first, first + top);
    s.excluded.insert(s.excluded.end(), first + top,
                      first + (top + next));
    return clipped;
}

} // namespace

void
sadsTopKRows(const MatF &scores, int k, const SadsConfig &cfg,
             std::size_t row_begin, std::size_t row_end,
             std::vector<SadsRow> *rows, OpCounter *ops)
{
    SOFA_ASSERT(cfg.segments >= 1);
    SOFA_ASSERT(cfg.sorterInputs >= 1);
    SOFA_ASSERT(rows->size() == scores.rows());
    SOFA_ASSERT(row_end <= scores.rows());
    const int S = static_cast<int>(scores.cols());
    const int n = std::min(cfg.segments, std::max(1, S));
    const int keep = std::min(k, S);
    const int per_seg = static_cast<int>(ceilDiv(keep, n));
    const std::size_t keep_n = static_cast<std::size_t>(std::max(keep, 0));

    Scratch s;
    s.chunk.resize(static_cast<std::size_t>(cfg.sorterInputs));
    // Tally locally and add to *ops once: callers hand neighbouring
    // row ranges adjacent counters, and per-segment updates there
    // would bounce that cache line between cores (false sharing).
    OpCounter result_ops;
    for (std::size_t r = row_begin; r < row_end; ++r) {
        const float *row = scores.rowPtr(r);
        SadsRow &out = (*rows)[r];

        // Row span estimate for the clip radius (hardware tracks this
        // in the TU unit from the running max/min). min/max are
        // order-independent, so the blocked scan is bit-exact.
        float mn, mx;
        minmaxBlock(row, static_cast<std::size_t>(S), &mn, &mx);
        const float span = std::max(mx - mn, 1e-6f);

        // Distributed per-segment selection.
        std::vector<Key> &selected = s.selected;
        std::vector<Key> &excluded = s.excluded;
        selected.clear();
        excluded.clear();
        for (int seg = 0; seg < n; ++seg) {
            const int lo = static_cast<int>(
                static_cast<std::int64_t>(seg) * S / n);
            const int hi = static_cast<int>(
                static_cast<std::int64_t>(seg + 1) * S / n);
            out.clipped += segmentTopM(row, lo, hi, per_seg, cfg, span,
                                       result_ops, s);
        }

        // Trim the union (n * ceil(k/n) >= k) down to k; the overflow
        // joins the excluded pool.
        std::sort(selected.begin(), selected.end());
        if (selected.size() > keep_n) {
            excluded.insert(excluded.end(), selected.begin() + keep_n,
                            selected.end());
            selected.resize(keep_n);
        }

        // Sphere-search refinement: swap the selected minimum with the
        // excluded maximum while the exchange improves the set. Each
        // step consumes the pool's next-best candidate, so only its
        // strongest refineIters need ordering.
        const std::size_t reach = std::min(
            static_cast<std::size_t>(std::max(cfg.refineIters, 0)),
            excluded.size());
        std::partial_sort(excluded.begin(), excluded.begin() + reach,
                          excluded.end());
        for (std::size_t t = 0; t < reach && !selected.empty(); ++t) {
            result_ops.cmpN(1 + n); // min-vs-max + per-segment reports
            if (keyRank(excluded[t]) >= keyRank(selected.back()))
                break;
            // Re-position the swapped-in element (sorted insert).
            selected.back() = excluded[t];
            std::rotate(std::upper_bound(selected.begin(),
                                         selected.end() - 1,
                                         excluded[t]),
                        selected.end() - 1, selected.end());
        }

        out.selected.reserve(out.selected.size() + selected.size());
        for (const Key key : selected)
            out.selected.push_back(keyIndex(key));
        out.top1 = selected.empty() ? -1 : keyIndex(selected[0]);
        out.top2 = selected.size() > 1 ? keyIndex(selected[1]) : -1;
    }
    *ops += result_ops;
}

SadsResult
sadsTopK(const MatF &scores, int k, const SadsConfig &cfg)
{
    SadsResult result;
    result.rows.resize(scores.rows());
    if (scores.rows() == 0)
        return result;

    // Chunk rows across the pool; per-chunk counters are merged with
    // integer addition (order-independent), so totals match a serial
    // run exactly. Per-row cost ~ S compares plus the sort passes.
    const std::size_t grain =
        grainForRowCost(8.0 * static_cast<double>(scores.cols()));
    std::vector<OpCounter> chunk_ops((scores.rows() + grain - 1) /
                                     grain);
    ThreadPool::instance().parallelFor(
        scores.rows(), grain,
        [&](std::size_t begin, std::size_t end, int chunk) {
            sadsTopKRows(scores, k, cfg, begin, end, &result.rows,
                         &chunk_ops[static_cast<std::size_t>(chunk)]);
        });
    for (const OpCounter &ops : chunk_ops)
        result.ops += ops;
    return result;
}

std::int64_t
vanillaSortComparisons(std::int64_t rows, std::int64_t seq)
{
    return rows * bitonicSortComparisons(seq);
}

} // namespace sofa
