#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "core/dlzs.h"
#include "model/workload.h"
#include "testutil.h"
#include "sparsity/metrics.h"
#include "sparsity/topk.h"

namespace sofa {
namespace {

TEST(LzEncode, CodesMatchLeadingZeros)
{
    MatI8 m(1, 4);
    m(0, 0) = 20;   // 00010100 -> LZ 3
    m(0, 1) = -4;   // |x|=00000100 -> LZ 5
    m(0, 2) = 0;    // zero flag
    m(0, 3) = -128; // LZ 0
    LzMatrix lz = lzEncodeI8(m);
    EXPECT_EQ(lz.codes(0, 0).lz, 3);
    EXPECT_EQ(lz.codes(0, 0).sign, 1);
    EXPECT_EQ(lz.codes(0, 1).lz, 5);
    EXPECT_EQ(lz.codes(0, 1).sign, -1);
    EXPECT_TRUE(lz.codes(0, 2).isZero());
    EXPECT_EQ(lz.codes(0, 3).lz, 0);
}

TEST(LzEncode, BitsPerElementCompact)
{
    // 8-bit source: sign + 4-bit LZ = 5 bits (the "4-bit weight"
    // storage of Fig. 7); 16-bit source: sign + 5 bits = 6.
    MatI8 m8(1, 1);
    LzMatrix l8 = lzEncodeI8(m8);
    EXPECT_EQ(l8.bitsPerElement(), 5);
    MatI16 m16(1, 1);
    LzMatrix l16 = lzEncodeI16(m16);
    EXPECT_EQ(l16.bitsPerElement(), 6);
}

TEST(LzEncode, OpCounterChargesLzcChain)
{
    MatI8 m(2, 3);
    OpCounter ops;
    lzEncodeI8(m, &ops);
    EXPECT_EQ(ops.cmps(), 2 * 3 * 8);
}

TEST(DlzsProduct, ZeroOperands)
{
    LzCode zero{0, 8};
    LzCode five{1, 5}; // value ~4..7 range, exponent 3
    EXPECT_EQ(dlzsProduct(0, 8, five, 8), 0);
    EXPECT_EQ(dlzsProduct(42, 8, zero, 8), 0);
}

TEST(DlzsProduct, SignRules)
{
    LzCode pos{1, 4}; // exponent 4
    LzCode neg{-1, 4};
    EXPECT_GT(dlzsProduct(3, 8, pos, 8), 0);
    EXPECT_LT(dlzsProduct(-3, 8, pos, 8), 0);
    EXPECT_LT(dlzsProduct(3, 8, neg, 8), 0);
    EXPECT_GT(dlzsProduct(-3, 8, neg, 8), 0);
}

TEST(DlzsProduct, MagnitudeIsShiftOfExactOperand)
{
    // y with LZ=3 in 8 bits -> exponent 5 -> product = x << 5.
    LzCode y{1, 3};
    EXPECT_EQ(dlzsProduct(6, 8, y, 8), 6 << 5);
}

TEST(DlzsProduct, BoundedRelativeError)
{
    // For positive x, y: estimate = x * 2^(W-LZy) = x * y / My with
    // My in [0.5, 1) -> estimate in [true, 2*true).
    for (int x : {3, 17, 100, 127}) {
        for (int y : {1, 5, 20, 90, 127}) {
            MatI8 ym(1, 1);
            ym(0, 0) = static_cast<std::int8_t>(y);
            LzCode code = lzEncodeI8(ym).codes(0, 0);
            const double est = static_cast<double>(
                dlzsProduct(x, 8, code, 8));
            const double truth = static_cast<double>(x) * y;
            EXPECT_GE(est, truth - 1e-9) << x << "*" << y;
            EXPECT_LT(est, 2.0 * truth + 1e-9) << x << "*" << y;
        }
    }
}

TEST(VanillaLzProduct, LargerErrorThanDlzs)
{
    // The vanilla scheme one-hot-encodes BOTH operands; after
    // removing each scheme's systematic bias (measured empirically,
    // as the descale stage does), its residual error is larger than
    // DLZS's, which keeps one operand exact ("half error").
    Rng rng(3);
    const int n = 2000;
    std::vector<double> d_ratio, v_ratio;
    for (int i = 0; i < n; ++i) {
        const int x = static_cast<int>(rng.uniformInt(1, 127));
        const int y = static_cast<int>(rng.uniformInt(1, 127));
        MatI8 ym(1, 1);
        ym(0, 0) = static_cast<std::int8_t>(y);
        LzCode code = lzEncodeI8(ym).codes(0, 0);
        const double truth = static_cast<double>(x) * y;
        d_ratio.push_back(dlzsProduct(x, 8, code, 8) / truth);
        v_ratio.push_back(vanillaLzProduct(x, 8, y, 8) / truth);
    }
    const double d_bias = mean(d_ratio);
    const double v_bias = mean(v_ratio);
    double d_err = 0.0, v_err = 0.0;
    for (int i = 0; i < n; ++i) {
        d_err += std::fabs(d_ratio[i] / d_bias - 1.0);
        v_err += std::fabs(v_ratio[i] / v_bias - 1.0);
    }
    EXPECT_LT(d_err, v_err);
    // "Half error": the debiased DLZS error is roughly half
    // vanilla's (one exact operand instead of none).
    EXPECT_LT(d_err / v_err, 0.8);
}

TEST(DlzsKPrediction, MultiplierFree)
{
    MatI8 tokens(8, 16);
    MatI8 wk(16, 4);
    Rng rng(9);
    for (auto &v : tokens.data())
        v = static_cast<std::int8_t>(rng.uniformInt(-100, 100));
    for (auto &v : wk.data())
        v = static_cast<std::int8_t>(rng.uniformInt(-100, 100));
    LzMatrix wlz = lzEncodeI8(wk);
    OpCounter ops;
    dlzsKPrediction(tokens, wlz, &ops);
    EXPECT_EQ(ops.muls(), 0);
    EXPECT_EQ(ops.exps(), 0);
    EXPECT_GT(ops.shifts(), 0);
    EXPECT_GT(ops.adds(), 0);
}

TEST(DlzsPredict, ScoresCorrelateWithExact)
{
    auto w = testutil::makeWorkload(256, 32, /*headDim=*/32,
                                    /*tokenDim=*/48);
    DlzsPrediction pred = dlzsPredict(w.tokens, w.wk, w.q);
    const MatF scores = exactScores(w);
    ASSERT_EQ(pred.scoresHat.rows(), scores.rows());
    ASSERT_EQ(pred.scoresHat.cols(), scores.cols());

    // Pearson correlation between predicted and exact scores should
    // be strongly positive (the prediction only needs ranking power).
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    const double n = static_cast<double>(scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
        const double x = pred.scoresHat.data()[i];
        const double y = scores.data()[i];
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
    }
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    const double corr = cov / std::sqrt(vx * vy);
    EXPECT_GT(corr, 0.75);
}

TEST(DlzsPredict, TopkRecallHigh)
{
    auto w = testutil::makeWorkload(512, 32, /*headDim=*/64,
                                    /*tokenDim=*/128);
    DlzsPrediction pred = dlzsPredict(w.tokens, w.wk, w.q);
    const int k = 64;
    auto predicted = exactTopKRows(pred.scoresHat, k);
    const MatF scores = exactScores(w);
    auto exact = exactTopKRows(scores, k);
    EXPECT_GT(topkRecall(predicted, exact), 0.7);
    // What matters downstream: the kept mass.
    EXPECT_GT(softmaxMassRecall(scores, predicted), 0.9);
}

TEST(DlzsPredict, NoMultipliesAnywhere)
{
    auto w = testutil::makeWorkload(64, 8, /*headDim=*/64,
                                    /*tokenDim=*/128);
    DlzsPrediction pred = dlzsPredict(w.tokens, w.wk, w.q);
    EXPECT_EQ(pred.ops.muls(), 0);
    EXPECT_GT(pred.ops.shifts(), 0);
}

TEST(DlzsPredict, WeightBitsSmallerThanInt8)
{
    auto w = testutil::makeWorkload(64, 8, /*headDim=*/64,
                                    /*tokenDim=*/128);
    DlzsPrediction pred = dlzsPredict(w.tokens, w.wk, w.q);
    const double int8_bits =
        static_cast<double>(w.wk.rows()) * w.wk.cols() * 8.0;
    EXPECT_LT(pred.predictionBitsFetched, int8_bits);
}

} // namespace
} // namespace sofa
