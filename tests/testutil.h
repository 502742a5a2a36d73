/**
 * @file
 * Shared test utilities: deterministic RNG construction, workload
 * fixtures that replace the per-file makeSetup/smallWorkload copies,
 * and AssertionResult-style matchers that print the measured error on
 * failure instead of a bare boolean.
 *
 * Tests include this as "testutil.h" (tests/ is on the include path).
 */

#ifndef SOFA_TESTS_TESTUTIL_H
#define SOFA_TESTS_TESTUTIL_H

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "model/workload.h"
#include "sparsity/topk.h"
#include "tensor/matrix.h"

namespace sofa {
namespace testutil {

/**
 * Seed for test-local Rng instances. Distinct from the workload
 * generator's default so a test that perturbs data (noise injection
 * etc.) never reuses the stream that generated the data.
 */
inline constexpr std::uint64_t kTestSeed = 0x50FA7E57ull;

/** Deterministic Rng; pass a distinct salt per stream within a test. */
inline Rng
makeRng(std::uint64_t salt = 0)
{
    return Rng(kTestSeed + salt);
}

/** Gaussian-filled matrix from a salted deterministic stream. */
inline MatF
randomMat(std::size_t rows, std::size_t cols, std::uint64_t salt = 0)
{
    Rng rng = makeRng(salt);
    MatF m(rows, cols);
    for (auto &x : m.data())
        x = static_cast<float>(rng.gaussian());
    return m;
}

/**
 * Small, fast workload with the dimensions most seed tests used to
 * build by hand. Deterministic: WorkloadSpec's default seed is fixed.
 */
inline AttentionWorkload
makeWorkload(int seq = 256, int queries = 16, int headDim = 32,
             int tokenDim = 32)
{
    WorkloadSpec spec;
    spec.seq = seq;
    spec.queries = queries;
    spec.headDim = headDim;
    spec.tokenDim = tokenDim;
    return generateWorkload(spec);
}

/** Workload plus exact top-k selections (descending by exact score). */
struct TopkSetup
{
    AttentionWorkload w;
    SelectionList selections;
};

inline TopkSetup
makeTopkSetup(int seq = 256, int queries = 16, int k = 64,
              int headDim = 32, int tokenDim = 32)
{
    TopkSetup s;
    s.w = makeWorkload(seq, queries, headDim, tokenDim);
    s.selections = exactTopKRows(exactScores(s.w), k);
    return s;
}

/**
 * Matcher: relative Frobenius error of @p actual vs @p expected is
 * below @p tol. On failure reports shapes and the measured error.
 * Usage: EXPECT_TRUE(testutil::MatrixNear(out, ref, 1e-4));
 */
inline ::testing::AssertionResult
MatrixNear(const MatF &actual, const MatF &expected, double tol)
{
    if (actual.rows() != expected.rows() ||
        actual.cols() != expected.cols()) {
        return ::testing::AssertionFailure()
               << "shape mismatch: " << actual.rows() << "x"
               << actual.cols() << " vs " << expected.rows() << "x"
               << expected.cols();
    }
    const double err = relativeError(actual, expected);
    if (err < tol)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "relative error " << err << " >= tolerance " << tol;
}

} // namespace testutil
} // namespace sofa

#endif // SOFA_TESTS_TESTUTIL_H
