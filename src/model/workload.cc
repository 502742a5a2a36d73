#include "model/workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace sofa {

namespace {

/** Softmax of a raw score row. */
std::vector<double>
softmaxRow(const std::vector<float> &scores)
{
    double m = -1e30;
    for (float s : scores)
        m = std::max(m, static_cast<double>(s));
    std::vector<double> p(scores.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
        p[i] = std::exp(static_cast<double>(scores[i]) - m);
        sum += p[i];
    }
    for (double &x : p)
        x /= sum;
    return p;
}

/** Pick @p count distinct indices in [0, seq). */
std::vector<int>
pickDistinct(Rng &rng, int seq, int count)
{
    std::vector<int> out;
    out.reserve(count);
    while (static_cast<int>(out.size()) < count) {
        int idx = static_cast<int>(rng.uniformInt(0, seq - 1));
        if (std::find(out.begin(), out.end(), idx) == out.end())
            out.push_back(idx);
    }
    return out;
}

/** Pick @p count distinct indices evenly spread over [0, seq). */
std::vector<int>
pickSpread(Rng &rng, int seq, int count)
{
    std::vector<int> out;
    out.reserve(count);
    const int stride = std::max(1, seq / count);
    for (int i = 0; i < count; ++i) {
        int base = i * stride;
        int jitter = static_cast<int>(
            rng.uniformInt(0, std::max(1, stride / 2)));
        out.push_back(std::min(seq - 1, base + jitter));
    }
    return out;
}

/** Pick @p count indices inside one random region of width frac*seq. */
std::vector<int>
pickClustered(Rng &rng, int seq, int count, double frac)
{
    const int width = std::max(count, static_cast<int>(seq * frac));
    const int start = static_cast<int>(
        rng.uniformInt(0, std::max(0, seq - width)));
    std::vector<int> out;
    out.reserve(count);
    while (static_cast<int>(out.size()) < count) {
        int idx = start + static_cast<int>(
            rng.uniformInt(0, width - 1));
        if (std::find(out.begin(), out.end(), idx) == out.end())
            out.push_back(idx);
    }
    return out;
}

std::vector<int>
dominantsForType(Rng &rng, DistType type, const ScoreRowParams &p)
{
    switch (type) {
      case DistType::TypeI:
        return pickDistinct(rng, p.seq, p.type1Dominants);
      case DistType::TypeII:
        return pickSpread(rng, p.seq, p.type23Dominants);
      case DistType::TypeIII:
        return pickClustered(rng, p.seq, p.type23Dominants,
                             p.type3RegionFrac);
    }
    panic("unreachable");
}

DistType
drawType(Rng &rng, const DistMixture &mix)
{
    std::size_t pick = rng.categorical({mix.type1, mix.type2, mix.type3});
    return pick == 0 ? DistType::TypeI
                     : pick == 1 ? DistType::TypeII : DistType::TypeIII;
}

} // namespace

std::vector<float>
generateScoreRow(Rng &rng, DistType type, const ScoreRowParams &params)
{
    SOFA_ASSERT(params.seq > 4);
    std::vector<float> row(params.seq);
    for (auto &x : row)
        x = static_cast<float>(rng.gaussian(0.0, params.noiseStd));

    const double amp =
        type == DistType::TypeI ? params.type1Amp : params.type23Amp;
    for (int idx : dominantsForType(rng, type, params)) {
        // Dominants replace the background draw: their amplitude
        // spread is the cluster's own (tight) variance, not the
        // background noise plus it.
        row[idx] = static_cast<float>(rng.gaussian(amp, 0.08 * amp));
    }
    return row;
}

MatF
generateScoreMatrix(Rng &rng, const DistMixture &mixture, int rows,
                    const ScoreRowParams &params)
{
    MatF m(rows, params.seq);
    for (int r = 0; r < rows; ++r) {
        DistType t = drawType(rng, mixture);
        auto row = generateScoreRow(rng, t, params);
        std::copy(row.begin(), row.end(), m.rowPtr(r));
    }
    return m;
}

DistType
classifyScoreRow(const std::vector<float> &scores,
                 double type1MassThreshold, double clusterFrac)
{
    const int seq = static_cast<int>(scores.size());
    SOFA_ASSERT(seq > 0);
    std::vector<double> p = softmaxRow(scores);

    // Indices sorted by descending probability.
    std::vector<int> order(seq);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return p[a] > p[b]; });

    // Type-I: the top few tokens carry most of the softmax mass.
    double top3 = 0.0;
    for (int i = 0; i < std::min(3, seq); ++i)
        top3 += p[order[i]];
    if (top3 >= type1MassThreshold)
        return DistType::TypeI;

    // Dominant set: tokens whose probability is a sizeable fraction
    // of the row max (a relative threshold keeps background noise
    // out of the set, which a cumulative-mass rule would not).
    const double pmax = p[order[0]];
    std::vector<int> dom;
    for (int idx : order) {
        if (p[idx] < 0.25 * pmax)
            break;
        dom.push_back(idx);
    }

    // Type-III: dominant tokens concentrated in one region.
    auto [mn, mx] = std::minmax_element(dom.begin(), dom.end());
    const int span = *mx - *mn + 1;
    if (dom.size() >= 4 &&
        span <= static_cast<int>(clusterFrac * seq)) {
        return DistType::TypeIII;
    }
    return DistType::TypeII;
}

double
MixtureTally::frac1() const
{
    return total() ? static_cast<double>(type1) / total() : 0.0;
}

double
MixtureTally::frac2() const
{
    return total() ? static_cast<double>(type2) / total() : 0.0;
}

double
MixtureTally::frac3() const
{
    return total() ? static_cast<double>(type3) / total() : 0.0;
}

MixtureTally
classifyScoreMatrix(const MatF &scores)
{
    MixtureTally tally;
    for (std::size_t r = 0; r < scores.rows(); ++r) {
        std::vector<float> row(scores.rowPtr(r),
                               scores.rowPtr(r) + scores.cols());
        switch (classifyScoreRow(row)) {
          case DistType::TypeI:
            ++tally.type1;
            break;
          case DistType::TypeII:
            ++tally.type2;
            break;
          case DistType::TypeIII:
            ++tally.type3;
            break;
        }
    }
    return tally;
}

namespace {

/** Raw token matrix X [S x n] at unit magnitude (pre-background). */
MatF
drawTokens(const WorkloadSpec &spec, Rng &rng)
{
    MatF tokens(spec.seq, spec.tokenDim);
    for (auto &x : tokens.data())
        x = static_cast<float>(rng.gaussian(0.0, 1.0));
    return tokens;
}

/** Per-head projection weights at 1/sqrt(n) magnitude. */
void
drawProjections(const WorkloadSpec &spec, Rng &rng, MatF *wk, MatF *wv)
{
    *wk = MatF(spec.tokenDim, spec.headDim);
    *wv = MatF(spec.tokenDim, spec.headDim);
    const double wstd = 1.0 / std::sqrt(spec.tokenDim);
    for (auto &x : wk->data())
        x = static_cast<float>(rng.gaussian(0.0, wstd));
    for (auto &x : wv->data())
        x = static_cast<float>(rng.gaussian(0.0, wstd));
}

/** Unit background direction u in token space. */
std::vector<float>
drawDirection(const WorkloadSpec &spec, Rng &rng)
{
    std::vector<float> u_x(spec.tokenDim);
    double u_norm = 0.0;
    for (auto &x : u_x) {
        x = static_cast<float>(rng.gaussian(0.0, 1.0));
        u_norm += static_cast<double>(x) * x;
    }
    u_norm = std::sqrt(std::max(u_norm, 1e-12));
    for (auto &x : u_x)
        x = static_cast<float>(x / u_norm);
    return u_x;
}

/**
 * Shared background ranking: add a rank-1 component c_j * u to the
 * tokens so every key carries a shared "importance" coefficient c_j
 * along direction u; queries are later aligned to u, which
 * correlates the tails of all rows' rankings.
 */
void
bakeBackground(const WorkloadSpec &spec, Rng &rng, MatF *tokens,
               const std::vector<float> &u_x)
{
    if (spec.backgroundGain <= 0.0)
        return;
    for (int j = 0; j < spec.seq; ++j) {
        const float coef = static_cast<float>(rng.gaussian(0.0, 1.0));
        float *xj = tokens->rowPtr(j);
        for (int c = 0; c < spec.tokenDim; ++c)
            xj[c] += coef * u_x[c];
    }
}

/**
 * Project tokens through the head's weights and construct Q with the
 * requested distribution mixture. Consumes @p rng for the global
 * token pool and the per-row dominant structure; tokens/wk/wv must
 * already be set on @p w.
 */
void
finishHeadWorkload(AttentionWorkload &w, const std::vector<float> &u_x,
                   Rng &rng)
{
    const WorkloadSpec &spec = w.spec;
    w.k = matmul(w.tokens, w.wk);
    w.v = matmul(w.tokens, w.wv);

    // The key-space image of u, used to align queries to the shared
    // ranking component.
    std::vector<float> u_k(spec.headDim, 0.0f);
    double uk_norm = 0.0;
    for (int c = 0; c < spec.headDim; ++c) {
        double acc = 0.0;
        for (int t = 0; t < spec.tokenDim; ++t)
            acc += static_cast<double>(u_x[t]) * w.wk(t, c);
        u_k[c] = static_cast<float>(acc);
        uk_norm += acc * acc;
    }
    uk_norm = std::sqrt(std::max(uk_norm, 1e-12));

    // Globally important token pool: a subset of tokens attended by
    // most queries (the columnar structure of real attention). Rows
    // draw their dominants from this pool with sharedDominantProb,
    // which is what makes on-demand KV generation and reuse-aware
    // scheduling profitable.
    const int pool_size = std::max(
        4, static_cast<int>(spec.globalTokenFrac * spec.seq));
    std::vector<int> pool = pickDistinct(rng, spec.seq, pool_size);

    // Build queries so that Q K^T exhibits the requested distribution
    // mixture *in calibrated score units*: background noise at
    // roughly unit standard deviation, dominants at the Fig. 8
    // amplitudes, the shared ranking at backgroundGain. Alignments
    // are normalized by key norms so each term lands at its target
    // score magnitude.
    ScoreRowParams srp;
    srp.seq = spec.seq;

    double k_norm_mean = 0.0;
    for (int j = 0; j < spec.seq; ++j) {
        const float *kr = w.k.rowPtr(j);
        double acc = 0.0;
        for (int c = 0; c < spec.headDim; ++c)
            acc += static_cast<double>(kr[c]) * kr[c];
        k_norm_mean += std::sqrt(acc);
    }
    k_norm_mean = std::max(k_norm_mean / spec.seq, 1e-9);

    // Score-unit amplitudes; dominantGain rescales around the
    // generator's reference gain of 3.0. The workload amplitudes run
    // higher than ScoreRowParams' because dominant alignments also
    // inject cross-term noise into other columns.
    const double amp_scale = spec.dominantGain / 3.0;
    const double type1_amp = 9.0 * amp_scale;
    const double type23_amp = 6.0 * amp_scale;

    w.q = MatF(spec.queries, spec.headDim);
    w.dominants.resize(spec.queries);
    w.rowTypes.resize(spec.queries);

    for (int r = 0; r < spec.queries; ++r) {
        DistType t = drawType(rng, spec.mixture);
        w.rowTypes[r] = t;
        w.dominants[r] = dominantsForType(rng, t, srp);
        // Redirect a share of the dominants into the global pool
        // (Type-III rows keep their positional cluster).
        if (t != DistType::TypeIII) {
            for (int &idx : w.dominants[r]) {
                if (rng.uniform() < spec.sharedDominantProb) {
                    idx = pool[static_cast<std::size_t>(
                        rng.uniformInt(0, pool_size - 1))];
                }
            }
            std::sort(w.dominants[r].begin(), w.dominants[r].end());
            w.dominants[r].erase(
                std::unique(w.dominants[r].begin(),
                            w.dominants[r].end()),
                w.dominants[r].end());
        }

        // Background noise: per-component std chosen so q.k_j has
        // roughly unit standard deviation.
        float *qr = w.q.rowPtr(r);
        const double noise_std = 0.8 / k_norm_mean;
        for (int c = 0; c < spec.headDim; ++c)
            qr[c] = static_cast<float>(rng.gaussian(0.0, noise_std));

        // Shared ranking alignment: contributes backgroundGain * c_j
        // to every score, identical across rows.
        if (spec.backgroundGain > 0.0) {
            const double bg =
                spec.backgroundGain / (uk_norm * uk_norm);
            for (int c = 0; c < spec.headDim; ++c)
                qr[c] += static_cast<float>(bg * u_k[c]);
        }

        const double amp_mean =
            t == DistType::TypeI ? type1_amp : type23_amp;
        for (int idx : w.dominants[r]) {
            const float *kr = w.k.rowPtr(idx);
            double norm2 = 0.0;
            for (int c = 0; c < spec.headDim; ++c)
                norm2 += static_cast<double>(kr[c]) * kr[c];
            norm2 = std::max(norm2, 1e-9);
            const double amp =
                rng.gaussian(amp_mean, 0.08 * amp_mean);
            const double scale = amp / norm2;
            for (int c = 0; c < spec.headDim; ++c)
                qr[c] += static_cast<float>(scale * kr[c]);
        }
    }
}

} // namespace

AttentionWorkload
generateWorkload(const WorkloadSpec &spec)
{
    SOFA_ASSERT(spec.seq > 8 && spec.queries > 0);
    SOFA_ASSERT(spec.headDim > 0 && spec.tokenDim > 0);

    // Single-stream generation: the draw order below (tokens,
    // weights, direction, background, pool, rows) is the seed
    // behaviour every golden number depends on — keep it.
    Rng rng(spec.seed);
    AttentionWorkload w;
    w.spec = spec;
    w.tokens = drawTokens(spec, rng);
    drawProjections(spec, rng, &w.wk, &w.wv);
    const std::vector<float> u_x = drawDirection(spec, rng);
    bakeBackground(spec, rng, &w.tokens, u_x);
    finishHeadWorkload(w, u_x, rng);
    return w;
}

MatF
exactScores(const AttentionWorkload &w)
{
    return matmulNT(w.q, w.k);
}

TokenField
generateTokenField(const WorkloadSpec &spec, Rng &rng)
{
    SOFA_ASSERT(spec.seq > 8);
    SOFA_ASSERT(spec.tokenDim > 0);
    TokenField field;
    field.tokens = drawTokens(spec, rng);
    field.direction = drawDirection(spec, rng);
    bakeBackground(spec, rng, &field.tokens, field.direction);
    return field;
}

AttentionWorkload
generateHeadWorkload(const WorkloadSpec &spec, const TokenField &field,
                     Rng &head_rng)
{
    SOFA_ASSERT(spec.queries > 0 && spec.headDim > 0);
    SOFA_ASSERT(static_cast<int>(field.tokens.rows()) == spec.seq);
    SOFA_ASSERT(static_cast<int>(field.tokens.cols()) ==
                spec.tokenDim);
    AttentionWorkload w;
    w.spec = spec;
    w.tokens = field.tokens;
    drawProjections(spec, head_rng, &w.wk, &w.wv);
    finishHeadWorkload(w, field.direction, head_rng);
    return w;
}

} // namespace sofa
