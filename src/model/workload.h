/**
 * @file
 * Synthetic attention workload generation.
 *
 * The paper's mechanisms act on attention *score distributions*; Fig. 8
 * taxonomizes those into three empirical types and gives each model
 * family's mixture. This module (a) generates score rows of each type,
 * (b) classifies rows back into types (used to validate the generator
 * and to reproduce Fig. 8(b)), and (c) generates complete tensor-level
 * workloads (X, Wk, Wv, Q and the exact K, V) whose attention matrix
 * follows a requested mixture, so the full DLZS -> SADS -> SU-FA
 * pipeline can be exercised end to end. The exact scores A = Q K^T
 * are not stored: the engine never reads them, and the quality
 * metrics and ground-truth consumers compute them on demand with
 * exactScores.
 */

#ifndef SOFA_MODEL_WORKLOAD_H
#define SOFA_MODEL_WORKLOAD_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "model/config.h"
#include "tensor/matrix.h"

namespace sofa {

/** Tunables for one synthetic score row. */
struct ScoreRowParams
{
    int seq = 1024;             ///< row length S
    double noiseStd = 1.0;      ///< background score noise
    double type1Amp = 7.0;      ///< dominant amplitude for Type-I
    double type23Amp = 4.5;     ///< dominant amplitude for Type-II/III
    int type1Dominants = 2;     ///< dominant token count for Type-I
    int type23Dominants = 12;   ///< dominant token count for Type-II/III
    double type3RegionFrac = 0.125; ///< Type-III cluster width (of S)
};

/** Generate one attention-score row of the given distribution type. */
std::vector<float> generateScoreRow(Rng &rng, DistType type,
                                    const ScoreRowParams &params);

/** Generate a score matrix following a model's type mixture. */
MatF generateScoreMatrix(Rng &rng, const DistMixture &mixture, int rows,
                         const ScoreRowParams &params);

/**
 * Classify a score row into one of the Fig. 8 types using the
 * post-softmax mass criteria described in Section III-B: Type-I when
 * the top few tokens dominate the softmax mass; otherwise the
 * dominant set (tokens whose probability is a sizeable fraction of
 * the row max) decides — concentrated in one region means Type-III,
 * spread out means Type-II.
 */
DistType classifyScoreRow(const std::vector<float> &scores,
                          double type1MassThreshold = 0.5,
                          double clusterFrac = 0.125);

/** Classification tallies across a matrix (for Fig. 8(b)). */
struct MixtureTally
{
    std::int64_t type1 = 0;
    std::int64_t type2 = 0;
    std::int64_t type3 = 0;

    double frac1() const;
    double frac2() const;
    double frac3() const;
    std::int64_t total() const { return type1 + type2 + type3; }
};

MixtureTally classifyScoreMatrix(const MatF &scores);

/** Specification of a complete tensor-level attention workload. */
struct WorkloadSpec
{
    int seq = 1024;       ///< S: keys in the context
    int queries = 64;     ///< T: queries processed in parallel
    int headDim = 64;     ///< d: per-head dimension
    int tokenDim = 128;   ///< n: token feature dimension (X columns)
    DistMixture mixture;  ///< per-row score distribution mixture
    double dominantGain = 3.0; ///< how strongly Q aligns to chosen keys
    /**
     * Attention matrices exhibit columnar structure: a subset of
     * tokens is important to *most* queries (the basis of SpAtten's
     * token pruning and SOFA's on-demand KV generation). This is the
     * fraction of tokens in that globally important pool...
     */
    double globalTokenFrac = 0.12;
    /** ...and the probability a row's dominant is drawn from it. */
    double sharedDominantProb = 0.7;
    /**
     * Strength of the shared background ranking: a rank-1 (token
     * direction x per-key coefficient) component that biases every
     * query's non-dominant scores the same way, so the tails of
     * different rows' top-k selections overlap — the columnar
     * structure real attention matrices exhibit. In score-standard-
     * deviation units; 0 disables it.
     */
    double backgroundGain = 1.2;
    std::uint64_t seed = 0x50FA0001ull;
};

/**
 * A complete attention workload: raw tokens and weights (the inputs the
 * SOFA accelerator sees) together with the exact K and V; the exact
 * scores come from exactScores.
 */
struct AttentionWorkload
{
    WorkloadSpec spec;
    MatF tokens;   ///< X  [S x n]
    MatF wk;       ///< Wk [n x d]
    MatF wv;       ///< Wv [n x d]
    MatF q;        ///< Q  [T x d]
    MatF k;        ///< K = X * Wk, exact       [S x d]
    MatF v;        ///< V = X * Wv, exact       [S x d]
    /** Dominant key indices planted for each query row. */
    std::vector<std::vector<int>> dominants;
    /** The distribution type drawn for each query row. */
    std::vector<DistType> rowTypes;
};

/** Generate a full workload per @p spec. */
AttentionWorkload generateWorkload(const WorkloadSpec &spec);

/**
 * The exact scores A = Q K^T [T x S] of @p w, the ground truth the
 * quality metrics compare against. Deterministic (a plain matmulNT),
 * and each row depends only on its own query row, so a query-row
 * slice's scores are the matching rows of the full matrix.
 */
MatF exactScores(const AttentionWorkload &w);

/**
 * The per-batch-item token state shared by every head of a
 * multi-head workload: the token matrix X (with the rank-1 shared
 * background component already baked in) plus the unit background
 * direction u the queries align to. Heads project the *same* tokens
 * through their own Wk/Wv, which is what makes cross-head KV reuse
 * and batched on-demand generation meaningful.
 */
struct TokenField
{
    MatF tokens;                  ///< X [S x n], background included
    std::vector<float> direction; ///< u, unit vector in token space
};

/** Generate one batch item's shared token field from @p rng. */
TokenField generateTokenField(const WorkloadSpec &spec, Rng &rng);

/**
 * Generate one head's workload on a shared token field: fresh
 * Wk/Wv/Q (and dominant structure) from @p head_rng, tokens taken
 * from @p field. The result is a complete AttentionWorkload, so
 * every single-head consumer (runSofaPipeline, metrics) works on it
 * unchanged.
 */
AttentionWorkload generateHeadWorkload(const WorkloadSpec &spec,
                                       const TokenField &field,
                                       Rng &head_rng);

} // namespace sofa

#endif // SOFA_MODEL_WORKLOAD_H
