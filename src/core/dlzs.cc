#include "core/dlzs.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/bits.h"
#include "common/logging.h"
#include "tensor/simd.h"

#if SOFA_SIMD_COMPILED_AVX2
#include <immintrin.h>
#endif

namespace sofa {

int
LzMatrix::bitsPerElement() const
{
    // sign bit + LZ field wide enough for [0, width]
    int lz_bits = 1;
    while ((1 << lz_bits) < width + 1)
        ++lz_bits;
    return 1 + lz_bits;
}

namespace {

template <typename T>
LzMatrix
lzEncodeImpl(const Matrix<T> &m, int width, OpCounter *ops)
{
    LzMatrix out;
    out.width = width;
    out.codes = Matrix<LzCode>(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.data().size(); ++i) {
        const std::int64_t v = m.data()[i];
        LzCode c;
        if (v == 0) {
            c.sign = 0;
            c.lz = static_cast<std::uint8_t>(width);
        } else {
            c.sign = v < 0 ? -1 : 1;
            c.lz = static_cast<std::uint8_t>(
                leadingZeros(absMagnitude(v), width));
        }
        out.codes.data()[i] = c;
        if (ops)
            ops->cmpN(width); // LZC priority chain examines W bits
    }
    return out;
}

} // namespace

LzMatrix
lzEncodeI8(const MatI8 &m, OpCounter *ops)
{
    return lzEncodeImpl(m, 8, ops);
}

LzMatrix
lzEncodeI16(const MatI16 &m, OpCounter *ops)
{
    return lzEncodeImpl(m, 16, ops);
}

std::int64_t
dlzsProduct(std::int64_t x, int /*x_width*/, LzCode y, int y_width)
{
    if (x == 0 || y.isZero())
        return 0;
    const int exponent = y_width - static_cast<int>(y.lz);
    // Eq. 1c: magnitude |x| << (W - LZy); the -1 keeps the estimate
    // centred: y's mantissa lies in [0.5, 1), so scaling by the full
    // 2^(W-LZy) systematically overestimates by ~1.5x. Hardware uses
    // the shift as-is for the *relative* ranking; we match that.
    std::int64_t mag = shiftLeftSat(std::llabs(x), exponent);
    const int sign = (x < 0) != (y.sign < 0) ? -1 : 1;
    return sign * mag;
}

MatI64
dlzsKPredictionScalar(const MatI8 &tokens, const LzMatrix &wk_lz,
                      OpCounter *ops)
{
    SOFA_ASSERT(tokens.cols() == wk_lz.rows());
    SOFA_ASSERT(wk_lz.width == 8);
    const std::size_t S = tokens.rows();
    const std::size_t n = tokens.cols();
    const std::size_t d = wk_lz.cols();

    MatI64 k_hat(S, d, 0);
    for (std::size_t i = 0; i < S; ++i) {
        const std::int8_t *xi = tokens.rowPtr(i);
        for (std::size_t j = 0; j < d; ++j) {
            std::int64_t acc = 0;
            for (std::size_t t = 0; t < n; ++t) {
                const LzCode w = wk_lz.codes(t, j);
                if (xi[t] == 0 || w.isZero()) {
                    if (ops)
                        ops->cmpN(1); // zero-eliminator check
                    continue;
                }
                acc += dlzsProduct(xi[t], 8, w, 8);
                if (ops) {
                    ops->shiftN(1);
                    ops->addN(1);
                }
            }
            k_hat(i, j) = acc;
        }
    }
    return k_hat;
}

MatI64
dlzsAPredictionScalar(const LzMatrix &q_lz, const MatI16 &k_hat,
                      OpCounter *ops)
{
    SOFA_ASSERT(q_lz.cols() == k_hat.cols());
    SOFA_ASSERT(q_lz.width == 16);
    const std::size_t T = q_lz.rows();
    const std::size_t S = k_hat.rows();
    const std::size_t d = k_hat.cols();

    MatI64 a_hat(T, S, 0);
    for (std::size_t i = 0; i < T; ++i) {
        for (std::size_t j = 0; j < S; ++j) {
            const std::int16_t *kj = k_hat.rowPtr(j);
            std::int64_t acc = 0;
            for (std::size_t t = 0; t < d; ++t) {
                const LzCode qc = q_lz.codes(i, t);
                if (kj[t] == 0 || qc.isZero()) {
                    if (ops)
                        ops->cmpN(1);
                    continue;
                }
                acc += dlzsProduct(kj[t], 16, qc, 16);
                if (ops) {
                    ops->shiftN(1);
                    ops->addN(1);
                }
            }
            a_hat(i, j) = acc;
        }
    }
    return a_hat;
}

#if SOFA_SIMD_COMPILED_AVX2

// The AVX2 bodies are double-precision GEMMs. A DLZS product
// sign * (|x| << (W - lz)) is exactly x * m with m = +-2^(W - lz)
// (0 for an eliminated zero), so K-hat = X * M_w and
// A-hat = M_q * K-hat^T. Every term and partial sum is an integer,
// and below 2^53 (asserted) a double holds it exactly: any blocking
// or summation order gives the Scalar baselines' integers bit for
// bit. The op tallies follow in closed form from zero counts.

namespace {

/** The multiplier Eq. 1c's shift applies: +-2^(W - lz), 0 for an
 * eliminated zero. */
inline double
lzValue(LzCode c, int width)
{
    if (c.isZero())
        return 0.0;
    SOFA_ASSERT(c.lz <= width); // else the shift is not a multiply
    const double mag =
        static_cast<double>(std::int64_t{1} << (width - c.lz));
    return c.sign < 0 ? -mag : mag;
}

constexpr std::size_t kMr = 4; ///< rows of a register tile
constexpr std::size_t kNr = 8; ///< columns of one (two __m256d)

/**
 * c[r * kNr + j] = sum_t a[r * K + t] * b[t * ldb + j] over @p K
 * terms: the register tile both GEMMs run on, @p a a block of kMr
 * rows. Plain mul + add: FMA would need its own CPU check, and the
 * sums are exact either way.
 */
SOFA_TARGET_AVX2 inline void
gemmTile(const double *a, const double *b, std::size_t ldb,
         std::size_t K, double *c)
{
    __m256d lo[kMr], hi[kMr];
    for (std::size_t r = 0; r < kMr; ++r)
        lo[r] = hi[r] = _mm256_setzero_pd();
    for (std::size_t t = 0; t < K; ++t) {
        const __m256d b0 = _mm256_loadu_pd(b + t * ldb);
        const __m256d b1 = _mm256_loadu_pd(b + t * ldb + 4);
        for (std::size_t r = 0; r < kMr; ++r) {
            const __m256d ar = _mm256_broadcast_sd(a + r * K + t);
            lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(ar, b0));
            hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(ar, b1));
        }
    }
    for (std::size_t r = 0; r < kMr; ++r) {
        _mm256_storeu_pd(c + r * kNr, lo[r]);
        _mm256_storeu_pd(c + r * kNr + 4, hi[r]);
    }
}

inline bool isZero(std::int64_t v) { return v == 0; }
inline bool isZero(LzCode c) { return c.isZero(); }

/** z[t] = rows i of @p m whose entry (i, t) is zero. */
template <typename T>
SOFA_TARGET_AVX2 std::vector<std::int64_t>
columnZeros(const Matrix<T> &m)
{
    std::vector<std::int64_t> z(m.cols(), 0);
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t t = 0; t < m.cols(); ++t)
            z[t] += isZero(m(i, t)) ? 1 : 0;
    return z;
}

/**
 * Charge the Scalar baselines' tally for an A x B output reduced over
 * t, where za[t] of the A rows and zb[t] of the B columns are zero at
 * t: a cmp per pair skipped on a zero, a shift and an add per other.
 */
void
chargePairs(const std::vector<std::int64_t> &za, std::size_t A,
            const std::vector<std::int64_t> &zb, std::size_t B,
            OpCounter &ops)
{
    const auto a = static_cast<std::int64_t>(A);
    const auto b = static_cast<std::int64_t>(B);
    std::int64_t skips = 0;
    for (std::size_t t = 0; t < za.size(); ++t)
        skips += za[t] * b + (a - za[t]) * zb[t];
    const auto pairs = a * b * static_cast<std::int64_t>(za.size());
    ops.cmpN(skips);
    ops.shiftN(pairs - skips);
    ops.addN(pairs - skips);
}

SOFA_TARGET_AVX2 MatI64
dlzsKPredictionAvx2(const MatI8 &tokens, const LzMatrix &wk_lz,
                    OpCounter *ops)
{
    SOFA_ASSERT(tokens.cols() == wk_lz.rows());
    SOFA_ASSERT(wk_lz.width == 8);
    const std::size_t S = tokens.rows();
    const std::size_t n = tokens.cols();
    const std::size_t d = wk_lz.cols();
    SOFA_ASSERT(n <= std::size_t{1} << 38); // n * 2^15 <= 2^53

    // M_w plus a tile of slack for a last partial tile to read past
    // d into (those columns are discarded); zw[t] = zeros in row t.
    std::vector<double> mw(n * d + kNr, 0.0);
    std::vector<std::int64_t> zw(n, 0);
    for (std::size_t e = 0; e < n * d; ++e) {
        mw[e] = lzValue(wk_lz.codes.data()[e], 8);
        zw[e / d] += isZero(wk_lz.codes.data()[e]) ? 1 : 0;
    }

    MatI64 k_hat(S, d);
    std::vector<double> xb(kMr * n); // kMr token rows, zero past S
    double c[kMr * kNr];
    for (std::size_t i0 = 0; i0 < S; i0 += kMr) {
        const std::size_t rows = std::min(kMr, S - i0);
        for (std::size_t e = 0; e < kMr * n; ++e)
            xb[e] = e < rows * n ? tokens.data()[i0 * n + e] : 0;
        for (std::size_t j0 = 0; j0 < d; j0 += kNr) {
            gemmTile(xb.data(), mw.data() + j0, d, n, c);
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t j = j0; j < std::min(d, j0 + kNr); ++j)
                    k_hat(i0 + r, j) = c[r * kNr + j - j0];
        }
    }
    if (ops)
        chargePairs(columnZeros(tokens), S, zw, d, *ops);
    return k_hat;
}

/** sum_t m[t] * k[t] over @p d terms: one A-hat entry, unpacked. */
SOFA_TARGET_AVX2 inline double
dotI16(const double *m, const std::int16_t *k, std::size_t d)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t t = 0;
    for (; t + 8 <= d; t += 8) {
        const __m128i k16 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(k + t));
        const __m256d k0 = _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(k16));
        const __m256d k1 = _mm256_cvtepi32_pd(
            _mm_cvtepi16_epi32(_mm_unpackhi_epi64(k16, k16)));
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_loadu_pd(m + t), k0));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(_mm256_loadu_pd(m + t + 4), k1));
    }
    double lane[4];
    _mm256_storeu_pd(lane, _mm256_add_pd(acc0, acc1));
    double s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    for (; t < d; ++t)
        s += m[t] * k[t];
    return s;
}

/** A-hat times @p scale as a T x S Out matrix: the AVX2 body of
 * dlzsAPrediction (int64, scale 1) and of dlzsPredict's scores. */
template <typename Out>
SOFA_TARGET_AVX2 Matrix<Out>
aPredictionAvx2(const LzMatrix &q_lz, const MatI16 &k_hat,
                double scale, OpCounter *ops)
{
    SOFA_ASSERT(q_lz.cols() == k_hat.cols());
    SOFA_ASSERT(q_lz.width == 16);
    const std::size_t T = q_lz.rows();
    const std::size_t S = k_hat.rows();
    const std::size_t d = k_hat.cols();
    SOFA_ASSERT(d <= std::size_t{1} << 22); // d * 2^31 <= 2^53

    // K-hat^T as kNr-column panels, each t-major and zero past S.
    // Decode steps (T <= kMr) skip it and its S x d buffer: packing
    // costs as much as their product, so entries are dot products.
    const bool packed = T > kMr;
    const std::size_t panels = (S + kNr - 1) / kNr;
    std::vector<double> kt(packed ? panels * d * kNr : 0, 0.0);
    for (std::size_t j = 0; packed && j < S; ++j)
        for (std::size_t t = 0; t < d; ++t)
            kt[(j / kNr * d + t) * kNr + j % kNr] = k_hat(j, t);

    Matrix<Out> out(T, S);
    std::vector<double> qb(kMr * d); // kMr query rows, zero past T
    double c[kMr * kNr];
    for (std::size_t i0 = 0; i0 < T; i0 += kMr) {
        const std::size_t rows = std::min(kMr, T - i0);
        for (std::size_t e = 0; e < kMr * d; ++e)
            qb[e] = e < rows * d
                        ? lzValue(q_lz.codes.data()[i0 * d + e], 16)
                        : 0.0;
        if (!packed) {
            for (std::size_t j = 0; j < S; ++j)
                for (std::size_t i = 0; i < T; ++i)
                    out(i, j) = static_cast<Out>(
                        dotI16(qb.data() + i * d, k_hat.rowPtr(j), d) *
                        scale);
            continue;
        }
        for (std::size_t p = 0; p < panels; ++p) {
            gemmTile(qb.data(), kt.data() + p * d * kNr, kNr, d, c);
            const std::size_t j0 = p * kNr;
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t j = j0; j < std::min(S, j0 + kNr); ++j)
                    out(i0 + r, j) =
                        static_cast<Out>(c[r * kNr + j - j0] * scale);
        }
    }
    if (ops)
        chargePairs(columnZeros(q_lz.codes), T, columnZeros(k_hat), S,
                    *ops);
    return out;
}

} // namespace

#endif // SOFA_SIMD_COMPILED_AVX2

MatI64
dlzsKPrediction(const MatI8 &tokens, const LzMatrix &wk_lz,
                OpCounter *ops)
{
#if SOFA_SIMD_COMPILED_AVX2
    if (simd::active() == simd::Level::Avx2)
        return dlzsKPredictionAvx2(tokens, wk_lz, ops);
#endif
    return dlzsKPredictionScalar(tokens, wk_lz, ops);
}

MatI64
dlzsAPrediction(const LzMatrix &q_lz, const MatI16 &k_hat,
                OpCounter *ops)
{
#if SOFA_SIMD_COMPILED_AVX2
    if (simd::active() == simd::Level::Avx2)
        return aPredictionAvx2<std::int64_t>(q_lz, k_hat, 1.0, ops);
#endif
    return dlzsAPredictionScalar(q_lz, k_hat, ops);
}

std::int64_t
vanillaLzProduct(std::int64_t x, int x_width, std::int64_t y,
                 int y_width)
{
    if (x == 0 || y == 0)
        return 0;
    const int ex = lzExponent(absMagnitude(x), x_width);
    const int ey = lzExponent(absMagnitude(y), y_width);
    std::int64_t mag = shiftLeftSat(1, ex + ey - 2);
    // -2: one-hot encode each operand at its MSB (2^(e-1) is the
    // value of the leading bit), matching the vanilla LOD scheme that
    // snaps each operand to its leading-one value.
    const int sign = (x < 0) != (y < 0) ? -1 : 1;
    return sign * mag;
}

MatI64
vanillaKPrediction(const MatI8 &tokens, const MatI8 &wk, OpCounter *ops)
{
    SOFA_ASSERT(tokens.cols() == wk.rows());
    const std::size_t S = tokens.rows();
    const std::size_t n = tokens.cols();
    const std::size_t d = wk.cols();

    MatI64 k_hat(S, d, 0);
    for (std::size_t i = 0; i < S; ++i) {
        const std::int8_t *xi = tokens.rowPtr(i);
        for (std::size_t j = 0; j < d; ++j) {
            std::int64_t acc = 0;
            for (std::size_t t = 0; t < n; ++t) {
                const std::int8_t w = wk(t, j);
                if (xi[t] == 0 || w == 0) {
                    if (ops)
                        ops->cmpN(1);
                    continue;
                }
                acc += vanillaLzProduct(xi[t], 8, w, 8);
                if (ops) {
                    // Both operands pass through runtime converters.
                    ops->cmpN(16); // two 8-bit LZCs
                    ops->shiftN(1);
                    ops->addN(1);
                }
            }
            k_hat(i, j) = acc;
        }
    }
    return k_hat;
}

DlzsPrediction
dlzsPredict(const MatF &tokens, const MatF &wk, const MatF &q)
{
    SOFA_ASSERT(tokens.cols() == wk.rows());
    SOFA_ASSERT(q.cols() == wk.cols());

    DlzsPrediction pred;

    // Quantize the runtime operands.
    QuantI8 x_q = quantizeI8(tokens);
    QuantI8 w_q = quantizeI8(wk);
    QuantI16 q_q = quantizeI16(q);

    // Offline weight pre-conversion: not charged to runtime ops, but
    // its DRAM footprint is (5 bits vs 8 per weight).
    LzMatrix wk_lz = lzEncodeI8(w_q.values);
    pred.predictionBitsFetched =
        static_cast<double>(wk_lz.rows()) * wk_lz.cols() *
        wk_lz.bitsPerElement();

    // Phase 1.1: K-hat.
    MatI64 k_acc = dlzsKPrediction(x_q.values, wk_lz, &pred.ops);
    pred.kHat = truncateToI16(k_acc, &pred.kShift);

    // Phase 1.2: A-hat, with Q encoded by the runtime (configurable)
    // LZE in 16-bit mode.
    LzMatrix q_lz = lzEncodeI16(q_q.values, &pred.ops);

    // Descale to float so downstream stages see score magnitudes
    // comparable to the exact Q K^T. The DLZS shift substitutes
    // 2^(W-LZ) = y/M for the encoded operand y, with mantissa M in
    // [0.5, 1), so each product overestimates by 1/M; for uniformly
    // distributed operands E[1/M] = ln(2)/0.5 ~ 1.386, the debias
    // divisor applied per encoded phase. The AVX2 GEMM descales as it
    // stores, the Scalar level after its int64 loop: same bits.
    constexpr double kLzBias = 1.3863;
    const double k_scale = x_q.scale * w_q.scale *
                           std::pow(2.0, pred.kShift) / kLzBias;
    const double a_scale = k_scale * q_q.scale / kLzBias;
#if SOFA_SIMD_COMPILED_AVX2
    if (simd::active() == simd::Level::Avx2) {
        pred.scoresHat =
            aPredictionAvx2<float>(q_lz, pred.kHat, a_scale, &pred.ops);
        return pred;
    }
#endif
    const MatI64 a_acc =
        dlzsAPredictionScalar(q_lz, pred.kHat, &pred.ops);
    pred.scoresHat = MatF(a_acc.rows(), a_acc.cols());
    for (std::size_t i = 0; i < a_acc.data().size(); ++i) {
        pred.scoresHat.data()[i] =
            static_cast<float>(a_acc.data()[i] * a_scale);
    }
    return pred;
}

} // namespace sofa
