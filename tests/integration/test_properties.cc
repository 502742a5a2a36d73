#include <gtest/gtest.h>

#include <cmath>

#include "arch/accelerator.h"
#include "core/dlzs.h"
#include "core/pipeline.h"
#include "core/sads.h"
#include "model/workload.h"
#include "sparsity/metrics.h"

namespace sofa {
namespace {

// --- Determinism -----------------------------------------------------

TEST(Determinism, PipelineIsSeedDeterministic)
{
    WorkloadSpec spec;
    spec.seq = 256;
    spec.queries = 16;
    spec.seed = 0xDE7;
    PipelineConfig cfg;
    auto r1 = runSofaPipeline(generateWorkload(spec), cfg);
    auto r2 = runSofaPipeline(generateWorkload(spec), cfg);
    EXPECT_EQ(r1.output, r2.output);
    EXPECT_EQ(r1.selections, r2.selections);
    EXPECT_EQ(r1.totalOps().total(), r2.totalOps().total());
}

TEST(Determinism, SimulatorIsDeterministic)
{
    SofaAccelerator acc;
    AttentionShape shape;
    shape.queries = 256;
    shape.seq = 2048;
    auto r1 = acc.run(shape);
    auto r2 = acc.run(shape);
    EXPECT_DOUBLE_EQ(r1.cycles, r2.cycles);
    EXPECT_DOUBLE_EQ(r1.energyPj, r2.energyPj);
    EXPECT_DOUBLE_EQ(r1.dramBytes, r2.dramBytes);
}

// --- Simulator monotonicity properties --------------------------------

TEST(SimProperties, TimeMonotoneInSeq)
{
    SofaAccelerator acc;
    double prev = 0.0;
    for (std::int64_t s : {512, 1024, 2048, 4096, 8192}) {
        AttentionShape shape;
        shape.queries = 128;
        shape.seq = s;
        const double t = acc.run(shape).timeNs;
        EXPECT_GT(t, prev) << "S=" << s;
        prev = t;
    }
}

TEST(SimProperties, TimeMonotoneInQueries)
{
    SofaAccelerator acc;
    double prev = 0.0;
    for (std::int64_t q : {32, 128, 512, 2048}) {
        AttentionShape shape;
        shape.queries = q;
        shape.seq = 2048;
        const double t = acc.run(shape).timeNs;
        EXPECT_GE(t, prev) << "T=" << q;
        prev = t;
    }
}

TEST(SimProperties, EnergyMonotoneInKeep)
{
    AttentionShape shape;
    shape.queries = 256;
    shape.seq = 2048;
    double prev = 0.0;
    for (double keep : {0.05, 0.1, 0.2, 0.4, 0.8}) {
        SofaConfig cfg;
        cfg.topkFrac = keep;
        const auto r = SofaAccelerator(cfg).run(shape);
        const double e = r.energyPj + r.dramEnergyPj;
        EXPECT_GT(e, prev) << "keep=" << keep;
        prev = e;
    }
}

TEST(SimProperties, ViolationRateRaisesEnergyOnly)
{
    AttentionShape clean, noisy;
    clean.queries = noisy.queries = 256;
    clean.seq = noisy.seq = 2048;
    clean.violationRate = 0.0;
    noisy.violationRate = 0.3;
    SofaAccelerator acc;
    auto rc = acc.run(clean);
    auto rn = acc.run(noisy);
    EXPECT_GE(rn.energyPj, rc.energyPj);
}

TEST(SimProperties, EveryFeatureContributes)
{
    // Disabling any single feature must not make the design better
    // on the energy x delay product.
    AttentionShape shape;
    shape.queries = 512;
    shape.seq = 4096;
    shape.headDim = 64;
    SofaConfig full;
    const auto base = SofaAccelerator(full).run(shape);
    const double base_edp =
        base.timeNs * (base.energyPj + base.dramEnergyPj);

    for (int i = 0; i < 6; ++i) {
        SofaConfig cfg;
        switch (i) {
          case 0: cfg.features.dlzsPrediction = false; break;
          case 1: cfg.features.sadsSorting = false; break;
          case 2: cfg.features.sufaOrdering = false; break;
          case 3: cfg.features.rassScheduling = false; break;
          case 4: cfg.features.tiledPipeline = false; break;
          case 5: cfg.features.onDemandKv = false; break;
        }
        const auto r = SofaAccelerator(cfg).run(shape);
        const double edp =
            r.timeNs * (r.energyPj + r.dramEnergyPj);
        EXPECT_GE(edp, base_edp * 0.999) << "feature " << i;
    }
}

// --- DLZS golden vectors ----------------------------------------------

TEST(DlzsGolden, KnownProducts)
{
    // Hand-computed: y=20 (LZ 3, exp 5) -> x<<5; y=127 (LZ 1,
    // exp 7) -> x<<7; y=1 (LZ 7, exp 1) -> x<<1.
    struct Case { int x; int y; std::int64_t expect; };
    const Case cases[] = {
        {6, 20, 6ll << 5},    {3, 127, 3ll << 7},
        {100, 1, 100ll << 1}, {-6, 20, -(6ll << 5)},
        {6, -20, -(6ll << 5)}, {-6, -20, 6ll << 5},
    };
    for (const auto &c : cases) {
        MatI8 ym(1, 1);
        ym(0, 0) = static_cast<std::int8_t>(c.y);
        LzCode code = lzEncodeI8(ym).codes(0, 0);
        EXPECT_EQ(dlzsProduct(c.x, 8, code, 8), c.expect)
            << c.x << "*" << c.y;
    }
}

TEST(DlzsGolden, KPredictionSmallMatrix)
{
    // X = [[2, 4]], Wk = [[8], [16]] -> exact 2*8 + 4*16 = 80;
    // DLZS: 2<<(8-4) + 4<<(8-3) = 32 + 128 = 160 (each term
    // overestimates by 1/M = 2 for exact powers of two).
    MatI8 x(1, 2);
    x(0, 0) = 2;
    x(0, 1) = 4;
    MatI8 w(2, 1);
    w(0, 0) = 8;
    w(1, 0) = 16;
    MatI64 k = dlzsKPrediction(x, lzEncodeI8(w), nullptr);
    EXPECT_EQ(k(0, 0), 160);
}

TEST(DlzsGolden, SaturatedOperands)
{
    // INT8 extremes must not overflow the int64 accumulation.
    MatI8 x(1, 4, 127);
    MatI8 w(4, 1);
    w.fill(-128);
    MatI64 k = dlzsKPrediction(x, lzEncodeI8(w), nullptr);
    // Each term: -(127 << 8) = -32512; four terms.
    EXPECT_EQ(k(0, 0), -4 * (127ll << 8));
}

// --- Failure injection --------------------------------------------------

TEST(FailureInjection, SadsAllMassInOneSegment)
{
    // Adversarial: every dominant in segment 0, far beyond the
    // per-segment quota. Refinement must recover most of the mass
    // that the quota would otherwise forfeit.
    MatF scores(4, 256, 0.0f);
    Rng rng(99);
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 256; ++c)
            scores(r, c) = static_cast<float>(
                rng.gaussian(0.0, 0.05));
        for (int c = 0; c < 16; ++c) // 16 dominants in segment 0
            scores(r, c * 4) = 5.0f + 0.1f * c;
    }
    SadsConfig cfg;
    cfg.segments = 4; // quota 8/segment for k=32
    cfg.refineIters = 32;
    auto res = sadsTopK(scores, 32, cfg);
    const double mass =
        softmaxMassRecall(scores, res.selections());
    const double oracle = softmaxMassRecall(
        scores, exactTopKRows(scores, 32));
    EXPECT_GT(mass, 0.9 * oracle);
}

TEST(FailureInjection, PipelineOnConstantScores)
{
    // Degenerate workload: all-equal scores (softmax uniform). The
    // pipeline must not crash and must produce a sane average.
    WorkloadSpec spec;
    spec.seq = 128;
    spec.queries = 8;
    spec.dominantGain = 0.0;   // no dominants
    spec.backgroundGain = 0.0; // no shared ranking
    auto w = generateWorkload(spec);
    const MatF scores(w.q.rows(), w.k.rows(), 1.0f); // exact ties
    PipelineConfig cfg;
    cfg.topkFrac = 0.25;
    // SADS on the true scores' prediction still runs; use the
    // baseline path on the tied matrix directly.
    auto sel = sadsTopK(scores, 32, {});
    for (const auto &row : sel.rows)
        EXPECT_EQ(row.selected.size(), 32u);
}

TEST(FailureInjection, SufaSingleKeyRows)
{
    WorkloadSpec spec;
    spec.seq = 64;
    spec.queries = 8;
    auto w = generateWorkload(spec);
    SelectionList sel(8, Selection{0});
    auto res = sufaAttention(w.q, w.k, w.v, sel, {});
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < w.v.cols(); ++c)
            EXPECT_NEAR(res.output(r, c), w.v(0, c), 1e-4);
}

TEST(FailureInjection, WorkloadWithoutBackgroundStillWorks)
{
    WorkloadSpec spec;
    spec.seq = 256;
    spec.queries = 16;
    spec.backgroundGain = 0.0;
    auto w = generateWorkload(spec);
    PipelineConfig cfg;
    cfg.topkFrac = 0.2;
    auto res = runSofaPipeline(w, cfg);
    EXPECT_GT(res.massRecall, 0.5);
    for (float v : res.output.data())
        EXPECT_TRUE(std::isfinite(v));
}

// --- Keep-fraction sweep property ---------------------------------------

class KeepSweep : public ::testing::TestWithParam<double>
{};

TEST_P(KeepSweep, QualityAndCostScale)
{
    WorkloadSpec spec;
    spec.seq = 384;
    spec.queries = 24;
    spec.seed = 0x5EED;
    auto w = generateWorkload(spec);
    PipelineConfig cfg;
    cfg.topkFrac = GetParam();
    auto res = runSofaPipeline(w, cfg);
    // Selection sizes honor the keep fraction exactly.
    const int expect_k = static_cast<int>(
        std::lround(GetParam() * spec.seq));
    for (const auto &sel : res.selections)
        EXPECT_EQ(static_cast<int>(sel.size()), expect_k);
    // Formal op count scales with keep (within on-demand KV noise).
    EXPECT_GT(res.massRecall, GetParam() * 0.8);
}

INSTANTIATE_TEST_SUITE_P(Keeps, KeepSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4,
                                           0.75));

} // namespace
} // namespace sofa
