#include <gtest/gtest.h>

#include <set>

#include "common/threadpool.h"
#include "core/sads.h"
#include "model/workload.h"
#include "sparsity/metrics.h"
#include "testutil.h"

namespace sofa {
namespace {

MatF
scoresFor(DistMixture mix, int rows = 64, int seq = 512,
          std::uint64_t seed = 11)
{
    Rng rng(seed);
    ScoreRowParams p;
    p.seq = seq;
    return generateScoreMatrix(rng, mix, rows, p);
}

TEST(Sads, SelectsKIndices)
{
    MatF scores = scoresFor({0.2, 0.8, 0.0});
    SadsResult res = sadsTopK(scores, 64, {});
    for (const auto &row : res.rows) {
        EXPECT_EQ(row.selected.size(), 64u);
        std::set<int> uniq(row.selected.begin(), row.selected.end());
        EXPECT_EQ(uniq.size(), 64u); // no duplicates
        for (int idx : row.selected) {
            EXPECT_GE(idx, 0);
            EXPECT_LT(idx, 512);
        }
    }
}

TEST(Sads, SelectionSortedDescending)
{
    MatF scores = scoresFor({0.0, 1.0, 0.0}, 8);
    SadsResult res = sadsTopK(scores, 32, {});
    for (std::size_t r = 0; r < res.rows.size(); ++r) {
        const auto &sel = res.rows[r].selected;
        for (std::size_t i = 1; i < sel.size(); ++i)
            EXPECT_GE(scores(r, sel[i - 1]), scores(r, sel[i]));
    }
}

TEST(Sads, Top1IsSegmentwiseMax)
{
    MatF scores = scoresFor({1.0, 0.0, 0.0}, 16);
    SadsResult res = sadsTopK(scores, 16, {});
    for (std::size_t r = 0; r < res.rows.size(); ++r) {
        // top1 must be the true row max (it dominates its segment).
        int true_max = 0;
        for (int c = 1; c < 512; ++c)
            if (scores(r, c) > scores(r, true_max))
                true_max = c;
        EXPECT_EQ(res.rows[r].top1, true_max);
    }
}

TEST(Sads, NearOracleMassOnTypeI)
{
    // Scenario 1 of Fig. 9: Type-I dominants always captured, so
    // SADS covers essentially the same softmax mass as the exact
    // top-k oracle at the same budget.
    MatF scores = scoresFor({1.0, 0.0, 0.0}, 32);
    SadsResult res = sadsTopK(scores, 51, {}); // ~10%
    const double oracle = softmaxMassRecall(
        scores, exactTopKRows(scores, 51));
    const double sads = softmaxMassRecall(scores, res.selections());
    EXPECT_GT(sads, 0.97 * oracle);
}

TEST(Sads, NearOracleMassOnTypeII)
{
    // Scenario 2: evenly distributed dominants — the DCE case.
    MatF scores = scoresFor({0.0, 1.0, 0.0}, 32);
    SadsResult res = sadsTopK(scores, 102, {}); // ~20%
    const double oracle = softmaxMassRecall(
        scores, exactTopKRows(scores, 102));
    const double sads = softmaxMassRecall(scores, res.selections());
    EXPECT_GT(sads, 0.97 * oracle);
}

TEST(Sads, FewerComparisonsThanVanilla)
{
    MatF scores = scoresFor({0.25, 0.75, 0.0}, 64, 4096);
    SadsConfig cfg;
    cfg.segments = 4;
    SadsResult res = sadsTopK(scores, 512, cfg);
    const auto vanilla = vanillaSortComparisons(64, 4096);
    EXPECT_LT(res.ops.cmps(), vanilla / 3);
}

TEST(Sads, RefinementRepairsBoundaryMistakes)
{
    // Craft a row where one segment holds k/2 + extra dominants, so
    // per-segment quotas alone would miss some; refinement must
    // recover them.
    MatF scores(1, 128, 0.0f);
    // Segment 0 (0..31) gets 6 large values; others get noise.
    for (int i = 0; i < 6; ++i)
        scores(0, i * 5) = 10.0f + i;
    Rng rng(3);
    for (int c = 32; c < 128; ++c)
        scores(0, c) = static_cast<float>(rng.gaussian(0.0, 0.1));

    SadsConfig cfg;
    cfg.segments = 4;
    cfg.refineIters = 8;
    SadsResult res = sadsTopK(scores, 8, cfg); // quota 2/segment
    std::set<int> sel(res.rows[0].selected.begin(),
                      res.rows[0].selected.end());
    int captured = 0;
    for (int i = 0; i < 6; ++i)
        captured += sel.count(i * 5);
    EXPECT_GE(captured, 4); // more than the segment quota of 2

    SadsConfig no_refine = cfg;
    no_refine.refineIters = 0;
    SadsResult res0 = sadsTopK(scores, 8, no_refine);
    std::set<int> sel0(res0.rows[0].selected.begin(),
                       res0.rows[0].selected.end());
    int captured0 = 0;
    for (int i = 0; i < 6; ++i)
        captured0 += sel0.count(i * 5);
    EXPECT_GE(captured, captured0);
}

TEST(Sads, ClippingBlocksElements)
{
    MatF scores = scoresFor({1.0, 0.0, 0.0}, 8);
    SadsConfig cfg;
    cfg.radiusFrac = 0.3;
    SadsResult res = sadsTopK(scores, 16, cfg);
    std::int64_t clipped = 0;
    for (const auto &row : res.rows)
        clipped += row.clipped;
    EXPECT_GT(clipped, 0);
    // Results still capture the dominant mass the oracle would.
    const double oracle = softmaxMassRecall(
        scores, exactTopKRows(scores, 16));
    EXPECT_GT(softmaxMassRecall(scores, res.selections()),
              0.9 * oracle);
}

TEST(Sads, KLargerThanSeqClamps)
{
    MatF scores = scoresFor({0.0, 1.0, 0.0}, 2, 32);
    SadsResult res = sadsTopK(scores, 100, {});
    for (const auto &row : res.rows)
        EXPECT_EQ(row.selected.size(), 32u);
}

TEST(Sads, SingleSegmentMatchesExactTopK)
{
    MatF scores = scoresFor({0.3, 0.7, 0.0}, 8, 128);
    SadsConfig cfg;
    cfg.segments = 1;
    SadsResult res = sadsTopK(scores, 16, cfg);
    auto exact = exactTopKRows(scores, 16);
    EXPECT_NEAR(topkRecall(res.selections(), exact), 1.0, 1e-9);
}

/** Segment-count sweep: recall degrades gracefully. */
class SadsSegments : public ::testing::TestWithParam<int>
{};

TEST_P(SadsSegments, MassRecallNearOracle)
{
    MatF scores = scoresFor({0.25, 0.75, 0.0}, 32, 1024, 17);
    SadsConfig cfg;
    cfg.segments = GetParam();
    SadsResult res = sadsTopK(scores, 205, cfg); // 20%
    const double oracle = softmaxMassRecall(
        scores, exactTopKRows(scores, 205));
    EXPECT_GT(softmaxMassRecall(scores, res.selections()),
              0.93 * oracle)
        << "segments=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Segments, SadsSegments,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(Sads, RangeApiComposesToFullResult)
{
    // Disjoint row ranges into one result must reproduce the
    // whole-matrix entry point exactly (the engine's sharding).
    const MatF scores = exactScores(testutil::makeWorkload(256, 10));
    const SadsResult full = sadsTopK(scores, 32, {});
    std::vector<SadsRow> rows(scores.rows());
    OpCounter ops;
    sadsTopKRows(scores, 32, {}, 0, 4, &rows, &ops);
    sadsTopKRows(scores, 32, {}, 4, scores.rows(), &rows, &ops);
    ASSERT_EQ(rows.size(), full.rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(rows[r].selected, full.rows[r].selected) << r;
        EXPECT_EQ(rows[r].clipped, full.rows[r].clipped) << r;
        EXPECT_EQ(rows[r].top1, full.rows[r].top1) << r;
    }
    EXPECT_EQ(ops.total(), full.ops.total());
    EXPECT_EQ(ops.cmps(), full.ops.cmps());
}

TEST(Sads, ThreadCountInvariance)
{
    const MatF scores = exactScores(testutil::makeWorkload(384, 24));
    SadsResult serial_res;
    {
        ThreadPool::ScopedSerial serial;
        serial_res = sadsTopK(scores, 64, {});
    }
    const SadsResult threaded = sadsTopK(scores, 64, {});
    EXPECT_EQ(threaded.selections(), serial_res.selections());
    EXPECT_EQ(threaded.ops.total(), serial_res.ops.total());
}

} // namespace
} // namespace sofa
