#include <gtest/gtest.h>

#include <set>

#include "model/workload.h"

namespace sofa {
namespace {

ScoreRowParams
smallParams()
{
    ScoreRowParams p;
    p.seq = 512;
    return p;
}

TEST(ScoreRow, TypeIClassifiedBack)
{
    Rng rng(1);
    int hits = 0;
    for (int i = 0; i < 50; ++i) {
        auto row = generateScoreRow(rng, DistType::TypeI,
                                    smallParams());
        hits += classifyScoreRow(row) == DistType::TypeI;
    }
    EXPECT_GE(hits, 40);
}

TEST(ScoreRow, TypeIIClassifiedBack)
{
    Rng rng(2);
    int hits = 0;
    for (int i = 0; i < 50; ++i) {
        auto row = generateScoreRow(rng, DistType::TypeII,
                                    smallParams());
        hits += classifyScoreRow(row) == DistType::TypeII;
    }
    EXPECT_GE(hits, 40);
}

TEST(ScoreRow, TypeIIIClassifiedBack)
{
    Rng rng(3);
    int hits = 0;
    for (int i = 0; i < 50; ++i) {
        auto row = generateScoreRow(rng, DistType::TypeIII,
                                    smallParams());
        hits += classifyScoreRow(row) == DistType::TypeIII;
    }
    EXPECT_GE(hits, 35);
}

TEST(ScoreMatrix, MixtureApproximatelyRespected)
{
    Rng rng(4);
    DistMixture mix{0.25, 0.74, 0.01};
    MatF m = generateScoreMatrix(rng, mix, 400, smallParams());
    MixtureTally tally = classifyScoreMatrix(m);
    EXPECT_NEAR(tally.frac1(), 0.25, 0.1);
    EXPECT_GT(tally.frac2(), 0.6);
}

TEST(ScoreRow, DominantsActuallyDominate)
{
    Rng rng(5);
    auto params = smallParams();
    auto row = generateScoreRow(rng, DistType::TypeI, params);
    // The max should be far above the noise floor.
    float mx = row[0];
    double sum = 0.0;
    for (float v : row) {
        mx = std::max(mx, v);
        sum += v;
    }
    const double mean_v = sum / row.size();
    EXPECT_GT(mx, mean_v + 3.5 * params.noiseStd);
}

TEST(Workload, ShapesMatchSpec)
{
    WorkloadSpec spec;
    spec.seq = 256;
    spec.queries = 16;
    spec.headDim = 32;
    spec.tokenDim = 48;
    AttentionWorkload w = generateWorkload(spec);
    EXPECT_EQ(w.tokens.rows(), 256u);
    EXPECT_EQ(w.tokens.cols(), 48u);
    EXPECT_EQ(w.k.rows(), 256u);
    EXPECT_EQ(w.k.cols(), 32u);
    EXPECT_EQ(w.q.rows(), 16u);
    const MatF scores = exactScores(w);
    EXPECT_EQ(scores.rows(), 16u);
    EXPECT_EQ(scores.cols(), 256u);
    EXPECT_EQ(w.dominants.size(), 16u);
}

TEST(Workload, KVDerivedFromTokens)
{
    WorkloadSpec spec;
    spec.seq = 64;
    spec.queries = 4;
    AttentionWorkload w = generateWorkload(spec);
    MatF k2 = matmul(w.tokens, w.wk);
    EXPECT_NEAR(relativeError(w.k, k2), 0.0, 1e-6);
    MatF v2 = matmul(w.tokens, w.wv);
    EXPECT_NEAR(relativeError(w.v, v2), 0.0, 1e-6);
}

TEST(Workload, PlantedDominantsScoreHigh)
{
    WorkloadSpec spec;
    spec.seq = 512;
    spec.queries = 32;
    spec.mixture = {1.0, 0.0, 0.0}; // all Type-I
    AttentionWorkload w = generateWorkload(spec);
    const MatF scores = exactScores(w);
    int hits = 0, total = 0;
    for (int r = 0; r < spec.queries; ++r) {
        // Each planted dominant should rank in the row's top decile.
        std::vector<float> row(scores.rowPtr(r),
                               scores.rowPtr(r) + spec.seq);
        std::vector<float> sorted = row;
        std::sort(sorted.begin(), sorted.end(), std::greater<>());
        const float decile = sorted[spec.seq / 10];
        for (int idx : w.dominants[r]) {
            ++total;
            hits += row[idx] >= decile;
        }
    }
    EXPECT_GT(static_cast<double>(hits) / total, 0.9);
}

TEST(Workload, DeterministicBySeed)
{
    WorkloadSpec spec;
    spec.seq = 128;
    spec.queries = 8;
    spec.seed = 99;
    AttentionWorkload a = generateWorkload(spec);
    AttentionWorkload b = generateWorkload(spec);
    EXPECT_EQ(a.q, b.q);
    EXPECT_EQ(a.k, b.k);
    spec.seed = 100;
    AttentionWorkload c = generateWorkload(spec);
    EXPECT_NE(a.q, c.q);
    EXPECT_NE(a.k, c.k);
}

TEST(Workload, RowTypesFollowMixture)
{
    WorkloadSpec spec;
    spec.seq = 256;
    spec.queries = 300;
    spec.mixture = {0.0, 1.0, 0.0};
    AttentionWorkload w = generateWorkload(spec);
    for (auto t : w.rowTypes)
        EXPECT_EQ(t, DistType::TypeII);
}

TEST(MixtureTally, Fractions)
{
    MixtureTally t;
    t.type1 = 1;
    t.type2 = 3;
    t.type3 = 0;
    EXPECT_DOUBLE_EQ(t.frac1(), 0.25);
    EXPECT_DOUBLE_EQ(t.frac2(), 0.75);
    EXPECT_DOUBLE_EQ(t.frac3(), 0.0);
    EXPECT_EQ(t.total(), 4);
}

} // namespace
} // namespace sofa
