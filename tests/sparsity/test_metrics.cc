#include <gtest/gtest.h>

#include "attention/reference.h"
#include "model/workload.h"
#include "testutil.h"
#include "sparsity/metrics.h"

namespace sofa {
namespace {

TEST(TopkRecall, PerfectAndEmpty)
{
    SelectionList exact = {{1, 2}, {3}};
    EXPECT_DOUBLE_EQ(topkRecall(exact, exact), 1.0);
    SelectionList none = {{}, {}};
    EXPECT_DOUBLE_EQ(topkRecall(none, exact), 0.0);
}

TEST(TopkRecall, PartialOverlap)
{
    SelectionList exact = {{1, 2, 3, 4}};
    SelectionList pred = {{1, 2, 9, 8}};
    EXPECT_DOUBLE_EQ(topkRecall(pred, exact), 0.5);
}

TEST(TopkRecall, OrderIrrelevant)
{
    SelectionList exact = {{1, 2, 3}};
    SelectionList pred = {{3, 1, 2}};
    EXPECT_DOUBLE_EQ(topkRecall(pred, exact), 1.0);
}

TEST(MassRecall, FullSelectionIsOne)
{
    MatF scores(2, 8);
    Rng rng(1);
    for (auto &v : scores.data())
        v = static_cast<float>(rng.gaussian());
    SelectionList all(2);
    for (auto &s : all)
        for (int i = 0; i < 8; ++i)
            s.push_back(i);
    EXPECT_NEAR(softmaxMassRecall(scores, all), 1.0, 1e-6);
}

TEST(MassRecall, DominantTokenCarriesMass)
{
    MatF scores(1, 16, 0.0f);
    scores(0, 5) = 10.0f;
    SelectionList only_dominant = {{5}};
    EXPECT_GT(softmaxMassRecall(scores, only_dominant), 0.99);
    SelectionList only_noise = {{0}};
    EXPECT_LT(softmaxMassRecall(scores, only_noise), 0.01);
}

TEST(AccuracyLoss, ZeroAtFullRecall)
{
    EXPECT_DOUBLE_EQ(accuracyLossPercent(1.0), 0.0);
}

TEST(AccuracyLoss, MonotoneInUncoveredMass)
{
    EXPECT_LT(accuracyLossPercent(0.99), accuracyLossPercent(0.95));
    EXPECT_LT(accuracyLossPercent(0.95), accuracyLossPercent(0.90));
}

TEST(AccuracyLoss, InverseRoundTrips)
{
    for (double loss : {0.0, 0.5, 1.0, 2.0}) {
        const double recall = massRecallForLoss(loss);
        EXPECT_NEAR(accuracyLossPercent(recall), loss, 1e-9);
    }
}

TEST(OutputError, ZeroForIdentical)
{
    MatF a(3, 3, 1.0f);
    EXPECT_NEAR(outputError(a, a), 0.0, 1e-12);
}

TEST(MetricsIntegration, RecallImprovesWithK)
{
    auto w = testutil::makeWorkload(256, 16, /*headDim=*/64,
                                    /*tokenDim=*/128);
    // Noisy prediction: exact scores + noise.
    const MatF scores = exactScores(w);
    MatF noisy = scores;
    Rng rng = testutil::makeRng(7);
    for (auto &v : noisy.data())
        v += static_cast<float>(rng.gaussian(0.0, 1.0));

    double prev_recall = 0.0;
    for (int k : {8, 32, 128}) {
        auto pred = exactTopKRows(noisy, k);
        auto exact = exactTopKRows(scores, k);
        (void)exact;
        const double mass = softmaxMassRecall(scores, pred);
        EXPECT_GE(mass, prev_recall);
        prev_recall = mass;
    }
}

} // namespace
} // namespace sofa
