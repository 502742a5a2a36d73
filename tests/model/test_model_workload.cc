#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "model/model_workload.h"
#include "testutil.h"

namespace sofa {
namespace {

ModelWorkloadSpec
smallSpec()
{
    ModelWorkloadSpec spec;
    spec.batch = 2;
    spec.heads = 3;
    spec.seq = 96;
    spec.queries = 8;
    spec.headDim = 16;
    spec.tokenDim = 24;
    return spec;
}

TEST(ModelWorkload, GridShape)
{
    const auto mw = generateModelWorkload(smallSpec());
    EXPECT_EQ(mw.batch(), 2);
    EXPECT_EQ(mw.heads(), 3);
    EXPECT_EQ(mw.size(), 6u);
    for (int b = 0; b < 2; ++b) {
        for (int h = 0; h < 3; ++h) {
            const AttentionWorkload &w = mw.head(b, h);
            EXPECT_EQ(w.spec.seq, 96);
            EXPECT_EQ(w.spec.queries, 8);
            EXPECT_EQ(w.q.rows(), 8u);
            EXPECT_EQ(w.k.rows(), 96u);
            EXPECT_EQ(exactScores(w).rows(), 8u);
            EXPECT_EQ(exactScores(w).cols(), 96u);
        }
    }
}

TEST(ModelWorkload, HeadsShareTokensPerBatchItem)
{
    const auto mw = generateModelWorkload(smallSpec());
    // Same item: identical token matrix, distinct projections.
    EXPECT_EQ(mw.head(0, 0).tokens, mw.head(0, 1).tokens);
    EXPECT_EQ(mw.head(0, 0).tokens, mw.head(0, 2).tokens);
    EXPECT_NE(mw.head(0, 0).wk, mw.head(0, 1).wk);
    EXPECT_NE(mw.head(0, 0).q, mw.head(0, 1).q);
    // Different items: distinct tokens.
    EXPECT_NE(mw.head(0, 0).tokens, mw.head(1, 0).tokens);
}

TEST(ModelWorkload, DeterministicPerHeadSeeding)
{
    const auto a = generateModelWorkload(smallSpec());
    const auto b = generateModelWorkload(smallSpec());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.grid[i].tokens, b.grid[i].tokens);
        EXPECT_EQ(a.grid[i].q, b.grid[i].q);
        EXPECT_EQ(a.grid[i].k, b.grid[i].k);
    }
    // A different grid seed moves every head.
    auto spec = smallSpec();
    spec.seed ^= 0x1234u;
    const auto c = generateModelWorkload(spec);
    EXPECT_NE(a.grid[0].tokens, c.grid[0].tokens);
}

TEST(ModelWorkload, HeadSeedsAreDistinct)
{
    const std::uint64_t base = 0x50FA0002ull;
    EXPECT_NE(headSeed(base, 0, 0), headSeed(base, 0, 1));
    EXPECT_NE(headSeed(base, 0, 0), headSeed(base, 1, 0));
    EXPECT_NE(headSeed(base, 1, 0), headSeed(base, 0, 1));
    // The token-stream sentinel never collides with real heads.
    EXPECT_NE(headSeed(base, 0, ~0), headSeed(base, 0, 0));
}

TEST(ModelWorkload, DecodeModeShapes)
{
    ModelWorkloadSpec spec = smallSpec();
    spec.pastLen = 80;
    spec.newTokens = 4;
    EXPECT_TRUE(spec.isDecode());
    EXPECT_EQ(spec.contextLen(), 84);
    EXPECT_EQ(spec.queryRows(), 4);
    const auto mw = generateModelWorkload(spec);
    EXPECT_EQ(mw.head(0, 0).spec.seq, 84);
    EXPECT_EQ(mw.head(0, 0).q.rows(), 4u);
    EXPECT_EQ(mw.head(0, 0).k.rows(), 84u);
}

TEST(ModelWorkload, EmptyBatchProducesEmptyGrid)
{
    ModelWorkloadSpec spec = smallSpec();
    spec.batch = 0;
    const auto mw = generateModelWorkload(spec);
    EXPECT_EQ(mw.size(), 0u);
}

TEST(ModelWorkload, HeadWorkloadMatchesSingleHeadConsumers)
{
    // A grid head is a complete AttentionWorkload: exact K/V/scores
    // ground truth holds (K = X Wk etc., A from exactScores), so
    // every single-head consumer can run on it unchanged.
    const auto mw = generateModelWorkload(smallSpec());
    const AttentionWorkload &w = mw.head(1, 2);
    const MatF k = matmul(w.tokens, w.wk);
    const MatF v = matmul(w.tokens, w.wv);
    EXPECT_EQ(w.k, k);
    EXPECT_EQ(w.v, v);
    EXPECT_EQ(exactScores(w), matmulNT(w.q, w.k));
}

TEST(ModelWorkload, ParallelGenerationMatchesSerial)
{
    // Heads generate in parallel on the pool; every head owns its
    // seed and only reads its item's token field, so the grid is
    // bit-identical to a serial generation.
    ModelWorkloadSpec prefill;
    prefill.batch = 2;
    prefill.heads = 5;
    prefill.seq = 256;
    prefill.queries = 32;
    prefill.headDim = 32;
    prefill.tokenDim = 64;
    ModelWorkloadSpec decode = prefill;
    decode.heads = 4;
    decode.pastLen = 320;
    decode.newTokens = 4; // speculative decode, gamma = 4
    for (const ModelWorkloadSpec &spec : {prefill, decode}) {
        ModelWorkload serial;
        {
            ThreadPool::ScopedSerial guard;
            serial = generateModelWorkload(spec);
        }
        const ModelWorkload pooled = generateModelWorkload(spec);
        ASSERT_EQ(pooled.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            const AttentionWorkload &a = serial.grid[i];
            const AttentionWorkload &b = pooled.grid[i];
            EXPECT_EQ(a.tokens, b.tokens) << i;
            EXPECT_EQ(a.wk, b.wk) << i;
            EXPECT_EQ(a.wv, b.wv) << i;
            EXPECT_EQ(a.q, b.q) << i;
            EXPECT_EQ(a.k, b.k) << i;
            EXPECT_EQ(a.v, b.v) << i;
            EXPECT_EQ(a.dominants, b.dominants) << i;
            EXPECT_EQ(a.rowTypes, b.rowTypes) << i;
        }
    }
}

TEST(ModelWorkload, SharedTokenFieldReusableDirectly)
{
    // generateTokenField + generateHeadWorkload compose: two heads
    // on one field share tokens and differ in projections.
    WorkloadSpec spec;
    spec.seq = 64;
    spec.queries = 4;
    spec.headDim = 8;
    spec.tokenDim = 16;
    Rng trng = testutil::makeRng(1);
    const TokenField field = generateTokenField(spec, trng);
    Rng h0 = testutil::makeRng(2), h1 = testutil::makeRng(3);
    const auto w0 = generateHeadWorkload(spec, field, h0);
    const auto w1 = generateHeadWorkload(spec, field, h1);
    EXPECT_EQ(w0.tokens, w1.tokens);
    EXPECT_NE(w0.wk, w1.wk);
}

} // namespace
} // namespace sofa
