/**
 * @file
 * SADS equivalence suite: sadsTopKRows (one partition per segment
 * over integer candidate keys, sorter cost charged in closed form)
 * against the original buffer-sorting model, kept below verbatim as
 * sadsReference, which re-sorts its top-m buffer after every sorter
 * chunk. Over seeded random shapes, configs, row ranges and value
 * fills, every row's selection, top1/top2 and clipped count, and the
 * op tally, must match at tolerance 0. The fills include heavy ties,
 * mixed +0/-0 and +-inf: the order is value descending with -0 equal
 * to +0, then index ascending, and those are exactly the inputs where
 * a key encoding of it could silently diverge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/logging.h"
#include "core/sads.h"
#include "model/workload.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "testprop.h"

namespace sofa {
namespace {

// ---------------------------------------------------------------
// Reference: the buffer-sorting SADS model, one std::sort of the
// top-m buffer per sorter chunk. It is the oracle: keep it literal,
// never optimize it.
// ---------------------------------------------------------------

namespace reference {

/** Candidate entry: (value, index). */
struct Cand
{
    float value;
    int index;

    bool
    operator<(const Cand &o) const
    {
        if (value != o.value)
            return value > o.value; // descending
        return index < o.index;
    }
};

/**
 * One sub-segment's local selection with the iterative 16-to-4 core.
 * Returns the segment's top-m candidates (descending), the elements
 * it clipped, and its best excluded candidate (for refinement).
 */
struct SegmentResult
{
    std::vector<Cand> selected;  ///< up to m, descending
    std::vector<Cand> excluded;  ///< survivors that did not make it
    std::int64_t clipped = 0;
};

SegmentResult
segmentTopM(const float *row, int lo, int hi, int m,
            const SadsConfig &cfg, float row_span, OpCounter &ops)
{
    SegmentResult res;
    const int len = hi - lo;
    if (len <= 0 || m <= 0)
        return res;

    // Adaptive clipping threshold state (Threshold Updating unit).
    float running_max = -std::numeric_limits<float>::infinity();
    float low_bound = -std::numeric_limits<float>::infinity();
    const bool clip_enabled = cfg.radiusFrac < 1.0;
    const float radius = static_cast<float>(cfg.radiusFrac) * row_span;

    std::vector<Cand> buffer; // sorted descending, holds top-m so far
    buffer.reserve(m + cfg.sorterInputs);
    std::vector<Cand> batch;
    batch.reserve(cfg.sorterInputs);
    std::vector<std::int32_t> survivors(
        static_cast<std::size_t>(cfg.sorterInputs));

    int pos = lo;
    while (pos < hi) {
        const int chunk = std::min(cfg.sorterInputs, hi - pos);
        // The clip threshold is constant across a sorter chunk —
        // running_max and low_bound only advance after the batch
        // merge below — which is what lets the filter run as one
        // SIMD compare + compress sweep (tensor/simd.h) instead of
        // a per-element branch. Survivor order and count match the
        // scalar left-to-right filter exactly.
        float threshold = -std::numeric_limits<float>::infinity();
        if (clip_enabled &&
            running_max > -std::numeric_limits<float>::infinity()) {
            threshold = std::max(running_max - radius, low_bound);
        }
        ops.cmpN(chunk); // clip filter compare, one per element
        const std::size_t kept = simd::scanSurvivors(
            row + pos, static_cast<std::size_t>(chunk), threshold,
            survivors.data());
        res.clipped += chunk - static_cast<std::int64_t>(kept);
        batch.clear();
        for (std::size_t s = 0; s < kept; ++s) {
            const int idx = pos + survivors[s];
            batch.push_back({row[idx], idx});
        }
        pos += chunk;
        if (batch.empty())
            continue;

        // One 16-to-4 bitonic pass merges the batch with the current
        // buffer head; comparator count charged per pass.
        ops.cmpN(cfg.sorterComparators);
        for (const Cand &c : batch) {
            buffer.push_back(c);
            running_max = std::max(running_max, c.value);
        }
        std::sort(buffer.begin(), buffer.end());
        if (static_cast<int>(buffer.size()) > m) {
            // Overflowed entries become excluded candidates.
            for (std::size_t i = m; i < buffer.size(); ++i)
                res.excluded.push_back(buffer[i]);
            buffer.resize(m);
        }
        if (static_cast<int>(buffer.size()) == m)
            low_bound = buffer.back().value;
    }

    res.selected = std::move(buffer);
    // Keep only the strongest excluded candidates; hardware retains a
    // handful for the refinement exchange.
    std::sort(res.excluded.begin(), res.excluded.end());
    if (static_cast<int>(res.excluded.size()) > m)
        res.excluded.resize(m);
    return res;
}

void
sadsReference(const MatF &scores, int k, const SadsConfig &cfg,
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

    OpCounter &result_ops = *ops;
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
        std::vector<Cand> selected;
        std::vector<Cand> excluded;
        for (int seg = 0; seg < n; ++seg) {
            const int lo = static_cast<int>(
                static_cast<std::int64_t>(seg) * S / n);
            const int hi = static_cast<int>(
                static_cast<std::int64_t>(seg + 1) * S / n);
            SegmentResult sr = segmentTopM(row, lo, hi, per_seg, cfg,
                                           span, result_ops);
            out.clipped += sr.clipped;
            selected.insert(selected.end(), sr.selected.begin(),
                            sr.selected.end());
            excluded.insert(excluded.end(), sr.excluded.begin(),
                            sr.excluded.end());
        }

        std::sort(selected.begin(), selected.end());
        std::sort(excluded.begin(), excluded.end());

        // Trim the union (n * ceil(k/n) >= k) down to k; the overflow
        // joins the excluded pool.
        while (static_cast<int>(selected.size()) > keep) {
            excluded.push_back(selected.back());
            selected.pop_back();
        }
        std::sort(excluded.begin(), excluded.end());

        // Sphere-search refinement: swap the selected minimum with the
        // excluded maximum while the exchange improves the set.
        int iter = 0;
        std::size_t ex_head = 0;
        while (iter < cfg.refineIters && !selected.empty() &&
               ex_head < excluded.size()) {
            result_ops.cmpN(1 + n); // min-vs-max + per-segment reports
            if (excluded[ex_head].value <= selected.back().value)
                break;
            std::swap(selected.back(), excluded[ex_head]);
            ++ex_head;
            // Re-position the swapped-in element (sorted insert).
            std::sort(selected.begin(), selected.end());
            ++iter;
        }

        out.selected.reserve(selected.size());
        for (const Cand &c : selected)
            out.selected.push_back(c.index);
        out.top1 = selected.empty() ? -1 : selected[0].index;
        out.top2 = selected.size() > 1 ? selected[1].index : -1;
    }
}

} // namespace reference

using reference::sadsReference;

// ---------------------------------------------------------------
// Property cases.
// ---------------------------------------------------------------

/** Value distributions for a case's rows. */
enum class Fill
{
    Gaussian,    ///< distinct values, the common case
    FewInts,     ///< five distinct integers: ties everywhere
    SignedZeros, ///< mostly +0 and -0, some +-1
    Infinities,  ///< gaussian with +inf and -inf sprinkled in
};

float
drawValue(Rng &rng, Fill fill)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    switch (fill) {
    case Fill::Gaussian:
        return static_cast<float>(rng.gaussian());
    case Fill::FewInts:
        return static_cast<float>(rng.uniformInt(-2, 2));
    case Fill::SignedZeros: {
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.4)
            return 0.0f;
        if (u < 0.8)
            return -0.0f;
        return rng.bernoulli(0.5) ? 1.0f : -1.0f;
    }
    case Fill::Infinities: {
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.15)
            return kInf;
        if (u < 0.3)
            return -kInf;
        return static_cast<float>(rng.gaussian());
    }
    }
    return 0.0f;
}

struct Case
{
    int rows = 1;
    int seq = 1;
    int k = 1;
    SadsConfig cfg;
    Fill fill = Fill::Gaussian;
    std::size_t rowBegin = 0;
    std::size_t rowEnd = 1;

    std::string
    describe() const
    {
        std::ostringstream os;
        os << "rows=" << rows << " S=" << seq << " k=" << k
           << " segments=" << cfg.segments
           << " sorterInputs=" << cfg.sorterInputs
           << " sorterComparators=" << cfg.sorterComparators
           << " refineIters=" << cfg.refineIters
           << " radiusFrac=" << cfg.radiusFrac
           << " fill=" << static_cast<int>(fill) << " range=["
           << rowBegin << ", " << rowEnd << ")";
        return os.str();
    }
};

Case
drawCase(Rng &rng)
{
    static const double kRadii[] = {1.0, 0.8, 0.3, 0.05};
    Case c;
    c.rows = static_cast<int>(rng.uniformInt(1, 3));
    // One case in ten is tiny, so more segments than columns is
    // common rather than a lucky draw.
    c.seq = rng.bernoulli(0.1)
                ? static_cast<int>(rng.uniformInt(1, 8))
                : static_cast<int>(testprop::edgeSize(rng, 1, 700));
    c.k = static_cast<int>(rng.uniformInt(1, c.seq + 3));
    c.cfg.segments = static_cast<int>(rng.uniformInt(1, 8));
    c.cfg.sorterInputs = static_cast<int>(rng.uniformInt(1, 20));
    c.cfg.sorterComparators = static_cast<int>(rng.uniformInt(1, 60));
    c.cfg.refineIters = static_cast<int>(rng.uniformInt(0, 12));
    c.cfg.radiusFrac = kRadii[rng.uniformInt(0, 3)];
    c.fill = static_cast<Fill>(rng.uniformInt(0, 3));
    c.rowBegin = static_cast<std::size_t>(rng.uniformInt(0, c.rows - 1));
    c.rowEnd = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::int64_t>(c.rowBegin) + 1,
                       c.rows));
    return c;
}

::testing::AssertionResult
sameOps(const OpCounter &got, const OpCounter &want)
{
    if (got.adds() == want.adds() && got.cmps() == want.cmps() &&
        got.shifts() == want.shifts() && got.muls() == want.muls() &&
        got.divs() == want.divs() && got.exps() == want.exps())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "ops " << got.toString() << " vs reference "
           << want.toString();
}

::testing::AssertionResult
sameRows(const std::vector<SadsRow> &got,
         const std::vector<SadsRow> &want)
{
    for (std::size_t r = 0; r < want.size(); ++r) {
        const SadsRow &g = got[r];
        const SadsRow &w = want[r];
        if (g.selected != w.selected || g.top1 != w.top1 ||
            g.top2 != w.top2 || g.clipped != w.clipped) {
            auto fail = ::testing::AssertionFailure();
            fail << "row " << r << ": top1 " << g.top1 << " vs "
                 << w.top1 << ", top2 " << g.top2 << " vs " << w.top2
                 << ", clipped " << g.clipped << " vs " << w.clipped
                 << ", selected size " << g.selected.size() << " vs "
                 << w.selected.size();
            for (std::size_t i = 0;
                 i < std::min(g.selected.size(), w.selected.size());
                 ++i) {
                if (g.selected[i] != w.selected[i]) {
                    fail << ", first difference at " << i << ": "
                         << g.selected[i] << " vs " << w.selected[i];
                    break;
                }
            }
            return fail;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(SadsProp, MatchesBufferSortingReference)
{
    int clipped_cases = 0;
    testprop::forEachSeededCase(2400, [&](int idx, Rng &rng) {
        const Case c = drawCase(rng);
        MatF scores(static_cast<std::size_t>(c.rows),
                    static_cast<std::size_t>(c.seq));
        for (std::size_t r = 0; r < scores.rows(); ++r)
            for (std::size_t j = 0; j < scores.cols(); ++j)
                scores(r, j) = drawValue(rng, c.fill);

        std::vector<SadsRow> got(scores.rows()), want(scores.rows());
        OpCounter got_ops, want_ops;
        sadsTopKRows(scores, c.k, c.cfg, c.rowBegin, c.rowEnd, &got,
                     &got_ops);
        sadsReference(scores, c.k, c.cfg, c.rowBegin, c.rowEnd, &want,
                      &want_ops);
        EXPECT_TRUE(sameRows(got, want))
            << "case " << idx << ": " << c.describe();
        EXPECT_TRUE(sameOps(got_ops, want_ops))
            << "case " << idx << ": " << c.describe();
        for (const SadsRow &w : want)
            clipped_cases += w.clipped > 0;
    });
    // The clip filter must actually have fired, or the clipping
    // branch went untested.
    EXPECT_GT(clipped_cases, 100);
}

TEST(SadsProp, MatchesReferenceOnEngineShapes)
{
    // The engine's setting: clipping off, default sorter, Fig. 8
    // mixture rows at the benchmark's prefill lengths, ~20 % kept.
    for (const int seq : {256, 512, 768}) {
        Rng rng(testutil::kTestSeed + static_cast<std::uint64_t>(seq));
        ScoreRowParams p;
        p.seq = seq;
        const MatF scores =
            generateScoreMatrix(rng, {0.3, 0.6, 0.1}, 16, p);
        const int k = seq / 5;
        for (const int segments : {1, 4, 16}) {
            SadsConfig cfg;
            cfg.segments = segments;
            const SadsResult got = sadsTopK(scores, k, cfg);
            std::vector<SadsRow> want(scores.rows());
            OpCounter want_ops;
            sadsReference(scores, k, cfg, 0, scores.rows(), &want,
                          &want_ops);
            EXPECT_TRUE(sameRows(got.rows, want))
                << "S=" << seq << " segments=" << segments;
            EXPECT_TRUE(sameOps(got.ops, want_ops))
                << "S=" << seq << " segments=" << segments;
        }
    }
}

} // namespace
} // namespace sofa
