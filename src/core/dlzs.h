/**
 * @file
 * Differential Leading Zero Summation (DLZS) — the paper's
 * multiplier-free log-domain sparsity prediction (Section III-A).
 *
 * An integer x is viewed as x = sign * M * 2^(W - LZ) (Eq. 1a) where LZ
 * is its leading-zero count in a W-bit window. A product x*y is then
 * approximated by shifting the *exact* operand x by the *encoded*
 * operand y's exponent (Eq. 1c):
 *
 *     x * y ~= XOR(Sx, Sy) * |x| << (W - LZy)
 *
 * "Differential" = only one operand is converted to the log domain,
 * which (vs the vanilla leading-one scheme converting both) halves the
 * converter count and the approximation error, and shrinks DRAM
 * traffic because weights are *pre-converted* offline and stored as
 * sign + 4-bit LZ codes.
 *
 * Two phases (Fig. 7):
 *  1.1 K-prediction: 8-bit tokens x pre-encoded Wk -> K-hat (truncated
 *      to 16 bits for the next phase);
 *  1.2 A-prediction: Q is converted by the runtime LZE (16-bit mode),
 *      K-hat is shifted -> A-hat, the estimated attention used by the
 *      top-k stage.
 *
 * Units: integer ops (shifts/adds — zero runtime multiplies)
 * counted via OpCounter; predicted-weight DRAM traffic in bits.
 * Assumes int8/int16 operands viewed through a W-bit LZ window.
 */

#ifndef SOFA_CORE_DLZS_H
#define SOFA_CORE_DLZS_H

#include <cstdint>
#include <vector>

#include "attention/opcount.h"
#include "tensor/matrix.h"
#include "tensor/quantize.h"

namespace sofa {

/** Sign + leading-zero code for one operand (what DRAM stores). */
struct LzCode
{
    std::int8_t sign = 1;  ///< +1 / -1; 0 encodes an eliminated zero
    std::uint8_t lz = 0;   ///< leading zeros within the source width

    bool isZero() const { return sign == 0; }
};

/** A matrix of LZ codes plus the width they were encoded from. */
struct LzMatrix
{
    int width = 8; ///< source operand width W (8 or 16)
    Matrix<LzCode> codes;

    std::size_t rows() const { return codes.rows(); }
    std::size_t cols() const { return codes.cols(); }

    /** Storage bits per element: sign + ceil(log2(W+1)) LZ bits. */
    int bitsPerElement() const;
};

/**
 * Encode a signed integer matrix into LZ format (the offline weight
 * pre-conversion, or the runtime LZE applied to Q).
 *
 * @param width source width: 8 for int8 operands, 16 for int16
 * @param ops   optional counter charged one cmp per bit examined
 *              (the LZC priority chain)
 */
LzMatrix lzEncodeI8(const MatI8 &m, OpCounter *ops = nullptr);
LzMatrix lzEncodeI16(const MatI16 &m, OpCounter *ops = nullptr);

/** Approximate product of exact operand @p x and encoded @p y. */
std::int64_t dlzsProduct(std::int64_t x, int x_width, LzCode y,
                         int y_width);

/**
 * Phase 1.1 — K-hat = X * Wk in the DLZS domain.
 *
 * @param tokens  int8 token matrix X [S x n]
 * @param wk_lz   pre-converted weights [n x d]
 * @param ops     charged shifts/adds only (no multiplies) plus the
 *                zero-eliminator comparisons
 * @return int64 accumulators [S x d] (caller truncates to 16 bit)
 *
 * Runtime-dispatched (tensor/simd.h). The Scalar baseline keeps the
 * seed's loop nest verbatim. The AVX2 body is a register-blocked
 * double GEMM X * M_w, where M_w holds each code's value
 * +-2^(8 - lz) (0 for an eliminated zero): every term is an integer
 * of magnitude <= 2^15 and every partial sum one below n * 2^15, exact
 * in double, so the result is bit-identical to the baseline. The
 * OpCounter totals match too, computed in closed form from zero
 * counts: skips = sum_t [zx_t * d + (S - zx_t) * zw_t] for zx_t zero
 * tokens in column t and zw_t zero codes in weight row t.
 */
MatI64 dlzsKPrediction(const MatI8 &tokens, const LzMatrix &wk_lz,
                       OpCounter *ops = nullptr);
MatI64 dlzsKPredictionScalar(const MatI8 &tokens,
                             const LzMatrix &wk_lz,
                             OpCounter *ops = nullptr);

/**
 * Phase 1.2 — A-hat = Q * K-hat^T with Q runtime-converted to LZ.
 *
 * @param q_lz   LZ-encoded queries [T x d] (16-bit source)
 * @param k_hat  truncated K-hat [S x d]
 * @return int64 score estimates [T x S]
 *
 * Runtime-dispatched like dlzsKPrediction: the AVX2 body is the
 * double GEMM M_q * K-hat^T (terms <= 2^31, sums below d * 2^31),
 * K-hat^T packed into 8-column panels unless T <= 4 (decode steps),
 * where each entry is a direct dot product instead. Bit-identical to
 * the Scalar baseline, op totals included (skips = sum_t [zq_t * S +
 * (T - zq_t) * zk_t], zero queries / K-hat rows in column t).
 */
MatI64 dlzsAPrediction(const LzMatrix &q_lz, const MatI16 &k_hat,
                       OpCounter *ops = nullptr);
MatI64 dlzsAPredictionScalar(const LzMatrix &q_lz,
                             const MatI16 &k_hat,
                             OpCounter *ops = nullptr);

/**
 * Vanilla leading-zero baseline (Fig. 7(b) top): both operands are
 * converted to one-hot powers of two, so the product is a bare
 * 2^(ex+ey). Twice the converter work and a larger error; used for
 * the DLZS-vs-vanilla comparisons.
 */
std::int64_t vanillaLzProduct(std::int64_t x, int x_width,
                              std::int64_t y, int y_width);

/** Vanilla-scheme K prediction (both operands one-hot encoded). */
MatI64 vanillaKPrediction(const MatI8 &tokens, const MatI8 &wk,
                          OpCounter *ops = nullptr);

/** Convenience: full two-phase DLZS prediction from float tensors. */
struct DlzsPrediction
{
    MatF scoresHat;      ///< estimated attention scores [T x S]
    MatI16 kHat;         ///< truncated K estimate
    int kShift = 0;      ///< truncation shift applied to K-hat
    OpCounter ops;       ///< total prediction op tally
    double predictionBitsFetched = 0.0; ///< DRAM bits for weights
};

/**
 * Run both DLZS phases on float inputs: quantizes tokens to int8 and
 * queries to int16, encodes weights offline, and returns a float
 * estimate of the attention scores (descaled), as the SADS stage
 * consumes it. At the AVX2 level the A-hat GEMM writes the descaled
 * scores directly; the bits equal the Scalar level's.
 */
DlzsPrediction dlzsPredict(const MatF &tokens, const MatF &wk,
                           const MatF &q);

} // namespace sofa

#endif // SOFA_CORE_DLZS_H
