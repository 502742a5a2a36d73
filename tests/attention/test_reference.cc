#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "attention/reference.h"
#include "common/threadpool.h"
#include "model/workload.h"
#include "testutil.h"
#include "sparsity/topk.h"

namespace sofa {
namespace {

AttentionWorkload
tinyWorkload(int seq = 64, int queries = 8)
{
    return testutil::makeWorkload(seq, queries, /*headDim=*/16,
                                  /*tokenDim=*/24);
}

TEST(SoftmaxRows, RowsSumToOne)
{
    auto w = tinyWorkload();
    MatF p = softmaxRows(exactScores(w));
    for (std::size_t r = 0; r < p.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < p.cols(); ++c)
            sum += p(r, c);
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(SoftmaxRows, InvariantToRowShift)
{
    MatF a(1, 4), b(1, 4);
    for (int c = 0; c < 4; ++c) {
        a(0, c) = static_cast<float>(c);
        b(0, c) = static_cast<float>(c) + 100.0f;
    }
    MatF pa = softmaxRows(a), pb = softmaxRows(b);
    for (int c = 0; c < 4; ++c)
        EXPECT_NEAR(pa(0, c), pb(0, c), 1e-6);
}

TEST(SoftmaxRows, OpCountMatchesClosedForm)
{
    MatF scores(3, 100);
    OpCounter ops;
    softmaxRows(scores, &ops);
    // Per row: S-1 cmps, S+ (S-1) adds, S exps, 1 div, S muls.
    EXPECT_EQ(ops.cmps(), 3 * 99);
    EXPECT_EQ(ops.exps(), 3 * 100);
    EXPECT_EQ(ops.divs(), 3);
    EXPECT_EQ(ops.muls(), 3 * 100);
}

TEST(SoftmaxRows, EmptyScoreMatrixIsANoop)
{
    // Zero-width rows have no max; softmax must not read past the
    // row and simply returns the empty shape.
    const MatF zr(4, 0);
    const MatF p = softmaxRows(zr);
    EXPECT_EQ(p.rows(), 4u);
    EXPECT_EQ(p.cols(), 0u);
    EXPECT_EQ(softmaxRows(MatF{}).size(), 0u);
}

TEST(SoftmaxRows, ThreadedMatchesForcedSerialBitExactly)
{
    MatF scores(512, 256);
    Rng rng = testutil::makeRng(31);
    for (auto &x : scores.data())
        x = static_cast<float>(rng.gaussian());
    OpCounter threaded_ops;
    const MatF threaded = softmaxRows(scores, &threaded_ops);
    ThreadPool::ScopedSerial guard;
    OpCounter serial_ops;
    const MatF serial = softmaxRows(scores, &serial_ops);
    EXPECT_EQ(threaded, serial);
    EXPECT_EQ(threaded_ops.total(), serial_ops.total());
}

TEST(ReferenceAttention, OutputShapeAndFiniteness)
{
    auto w = tinyWorkload();
    auto res = referenceAttention(w.q, w.k, w.v);
    EXPECT_EQ(res.output.rows(), w.q.rows());
    EXPECT_EQ(res.output.cols(), w.q.cols());
    for (float v : res.output.data())
        EXPECT_TRUE(std::isfinite(v));
}

TEST(ReferenceAttention, UniformScoresAverageValues)
{
    // With Q = 0 all scores are equal, so O = column mean of V.
    MatF q(2, 4, 0.0f);
    MatF k(8, 4);
    MatF v(8, 4);
    Rng rng(3);
    for (auto &x : k.data())
        x = static_cast<float>(rng.gaussian());
    for (auto &x : v.data())
        x = static_cast<float>(rng.gaussian());
    auto res = referenceAttention(q, k, v);
    for (std::size_t c = 0; c < 4; ++c) {
        double mean_v = 0.0;
        for (std::size_t r = 0; r < 8; ++r)
            mean_v += v(r, c);
        mean_v /= 8.0;
        EXPECT_NEAR(res.output(0, c), mean_v, 1e-5);
        EXPECT_NEAR(res.output(1, c), mean_v, 1e-5);
    }
}

TEST(ReferenceAttention, ExtremeScorePicksOneValue)
{
    MatF q(1, 2);
    q(0, 0) = 50.0f;
    MatF k(3, 2, 0.0f);
    k(1, 0) = 1.0f; // key 1 aligns with q
    MatF v(3, 2);
    v(0, 0) = 1.0f;
    v(1, 0) = 2.0f;
    v(2, 0) = 3.0f;
    auto res = referenceAttention(q, k, v);
    EXPECT_NEAR(res.output(0, 0), 2.0f, 1e-4);
}

TEST(ReferenceAttention, ProbsKeptOnRequest)
{
    auto w = tinyWorkload(16, 2);
    auto without = referenceAttention(w.q, w.k, w.v, false);
    auto with = referenceAttention(w.q, w.k, w.v, true);
    EXPECT_TRUE(without.probs.empty());
    EXPECT_EQ(with.probs.rows(), 2u);
    EXPECT_EQ(with.probs.cols(), 16u);
}

TEST(MaskedAttention, FullMaskEqualsDense)
{
    auto w = tinyWorkload(32, 4);
    SelectionList all(4);
    for (auto &sel : all) {
        sel.resize(32);
        std::iota(sel.begin(), sel.end(), 0);
    }
    auto masked = maskedReferenceAttention(w.q, w.k, w.v, all);
    auto dense = referenceAttention(w.q, w.k, w.v);
    EXPECT_LT(relativeError(masked.output, dense.output), 1e-5);
}

TEST(MaskedAttention, SingleKeyReturnsItsValue)
{
    auto w = tinyWorkload(16, 2);
    SelectionList sel = {{5}, {9}};
    auto res = maskedReferenceAttention(w.q, w.k, w.v, sel);
    for (std::size_t c = 0; c < w.v.cols(); ++c) {
        EXPECT_NEAR(res.output(0, c), w.v(5, c), 1e-5);
        EXPECT_NEAR(res.output(1, c), w.v(9, c), 1e-5);
    }
}

TEST(MaskedAttention, EmptySelectionYieldsZeros)
{
    auto w = tinyWorkload(16, 1);
    SelectionList sel = {{}};
    auto res = maskedReferenceAttention(w.q, w.k, w.v, sel);
    for (float v : res.output.data())
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(MaskedAttention, OpsScaleWithSelectionSize)
{
    auto w = tinyWorkload(64, 4);
    SelectionList small(4, Selection{1, 2});
    SelectionList large(4);
    for (auto &s : large) {
        s.resize(32);
        std::iota(s.begin(), s.end(), 0);
    }
    auto rs = maskedReferenceAttention(w.q, w.k, w.v, small);
    auto rl = maskedReferenceAttention(w.q, w.k, w.v, large);
    EXPECT_GT(rl.ops.total(), rs.ops.total() * 8);
}

} // namespace
} // namespace sofa
