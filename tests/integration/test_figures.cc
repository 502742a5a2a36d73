#include <gtest/gtest.h>

#include "arch/rass.h"
#include "arch/whole_row.h"
#include "attention/flash.h"
#include "baselines/gpu.h"
#include "baselines/sota.h"
#include "core/pipeline.h"
#include "core/sads.h"
#include "model/flops.h"
#include "model/suite.h"
#include "model/workload.h"

namespace sofa {
namespace {

// Shape assertions for each reproduced figure: these are the
// regression gates the bench harness relies on.

TEST(FigureShapes, Fig1AttentionTakesOverAtLongSeq)
{
    auto m = models::llama7b();
    auto p32k = modelProfile(m, 32768, 32768);
    EXPECT_GT(p32k.atten.flops,
              0.8 * (p32k.ffn.flops + p32k.qkv.flops));
    auto p128k = modelProfile(m, 131072, 131072);
    EXPECT_GT(p128k.atten.flops, p128k.ffn.flops + p128k.qkv.flops);
}

TEST(FigureShapes, Fig3MatRatioAveragesNearPaper)
{
    // Paper: MAT ratio rises to ~72% on average at the figure's
    // maximum parallelism per workload (512/256/128/8).
    std::vector<double> ratios;
    for (auto [seq, hd, heads, par] :
         {std::tuple{512, 64, 16, 512},
          std::tuple{1024, 64, 12, 256},
          std::tuple{2048, 128, 16, 128},
          std::tuple{4096, 128, 40, 8}}) {
        WholeRowConfig fact;
        fact.throughputGops = 928.0;
        auto r = runWholeRow(fact, par, seq, hd, heads);
        ratios.push_back(r.matRatio());
    }
    const double avg = mean(ratios);
    EXPECT_GT(avg, 0.55);
    EXPECT_LT(avg, 0.95);
}

TEST(FigureShapes, Fig5Fa2ComplexitySoarsWithS)
{
    // Normalized complexity gap vs vanilla grows superlinearly in S.
    const double gap_1k =
        fa2AnalyticOps(1, 1024, 16, 64).normalized() -
        vanillaAnalyticOps(1, 1024, 64).normalized();
    const double gap_4k =
        fa2AnalyticOps(1, 4096, 16, 64).normalized() -
        vanillaAnalyticOps(1, 4096, 64).normalized();
    EXPECT_GT(gap_4k, 3.5 * gap_1k);
}

TEST(FigureShapes, Fig8TypeIAndIICover95Percent)
{
    for (const auto &m :
         {models::bertBase(), models::gpt2(), models::llama7b(),
          models::vitBase()}) {
        Rng rng(1234);
        ScoreRowParams p;
        p.seq = 1024;
        MatF scores = generateScoreMatrix(rng, m.mixture, 200, p);
        auto tally = classifyScoreMatrix(scores);
        EXPECT_GT(tally.frac1() + tally.frac2(), 0.9) << m.name;
    }
}

TEST(FigureShapes, Fig17ComplexityLadder)
{
    // baseline > DLZS > DLZS+SADS > DLZS+SADS+SU-FA in normalized
    // complexity at matched sparsity.
    auto w = generateWorkload(
        suiteSmall()[0].workloadSpec(512, 32));
    const double keep = 0.2;

    auto base = runBaselinePipeline(w, keep);
    PipelineConfig cfg;
    cfg.topkFrac = keep;
    auto sofa_run = runSofaPipeline(w, cfg);

    OpCosts narrow = OpCosts::scaled(0.5); // 4-bit prediction path
    const double base_total = base.predictionOps.normalized(narrow) +
                              base.sortOps.normalized() +
                              base.formalOps.normalized();
    // DLZS only: swap prediction, keep vanilla sort + FA-2 formal.
    const double dlzs_only =
        sofa_run.predictionOps.normalized(narrow) +
        base.sortOps.normalized() + base.formalOps.normalized();
    const double dlzs_sads =
        sofa_run.predictionOps.normalized(narrow) +
        sofa_run.sortOps.normalized() + base.formalOps.normalized();
    const double full = sofa_run.predictionOps.normalized(narrow) +
                        sofa_run.sortOps.normalized() +
                        sofa_run.formalOps.normalized();
    EXPECT_LT(dlzs_only, base_total);
    EXPECT_LT(dlzs_sads, dlzs_only);
    EXPECT_LT(full, dlzs_sads);
    // Total reduction in the ballpark of the paper's 28%.
    EXPECT_GT(1.0 - full / base_total, 0.10);
}

TEST(FigureShapes, Fig18ReductionGrowsWithLossBudget)
{
    auto w = generateWorkload(
        suiteSmall()[2].workloadSpec(512, 24));
    PipelineConfig cfg;
    const double k0 = minimalKeepFraction(w, cfg, 0.25);
    const double k2 = minimalKeepFraction(w, cfg, 2.0);
    // More loss budget -> fewer keys kept -> more compute cut.
    EXPECT_LT(k2, k0 + 1e-9);
    // Attention-compute cut at 2% loss should be large (paper: 92.6%
    // on real benchmarks; synthetic mixtures are noisier).
    EXPECT_GT(1.0 - k2, 0.45);
}

TEST(FigureShapes, Fig20RassPlusTilingCutMemory)
{
    auto w = generateWorkload(
        suiteSmall()[0].workloadSpec(512, 64));
    auto sads = sadsTopK(exactScores(w), 102, {});
    auto sel = sads.selections();
    auto naive = scheduleNaive(sel, 64);
    auto rass = scheduleRass(sel, 64);
    EXPECT_LT(static_cast<double>(rass.vectorLoads),
              0.95 * static_cast<double>(naive.vectorLoads));
}

TEST(FigureShapes, Tab2SofaThroughputGapLargest)
{
    auto rows = sotaTable();
    const double sofa_gops = sofaRow().throughputGops;
    for (const auto &r : rows)
        EXPECT_GT(sofa_gops, r.throughputGops * 4.0) << r.name;
}

} // namespace
} // namespace sofa
