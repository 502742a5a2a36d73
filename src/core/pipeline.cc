#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "attention/reference.h"
#include "common/logging.h"
#include "core/engine.h"
#include "sparsity/mask.h"

namespace sofa {

OpCounter
PipelineResult::totalOps() const
{
    OpCounter t;
    t += predictionOps;
    t += sortOps;
    t += formalOps;
    return t;
}

int
pipelineKeepCount(double topk_frac, int seq)
{
    return std::max(1, static_cast<int>(
        std::lround(topk_frac * seq)));
}

OpCounter
kvGenerationOps(std::int64_t keys, std::int64_t token_dim,
                std::int64_t head_dim)
{
    // K and V: each key row costs token_dim * head_dim MACs.
    OpCounter ops;
    ops.mulN(2 * keys * token_dim * head_dim);
    ops.addN(2 * keys * token_dim * (head_dim - 1));
    return ops;
}

namespace {

/** fillPipelineQuality on @p w's exact scores, already computed. */
void
fillQuality(const AttentionWorkload &w, const MatF &scores, int k,
            PipelineResult &res)
{
    SelectionList exact = exactTopKRows(scores, k);
    res.topkRecall = topkRecall(res.selections, exact);
    res.massRecall = softmaxMassRecall(scores, res.selections);
    res.accuracyLossPct = accuracyLossPercent(res.massRecall);

    AttentionResult dense = referenceAttention(w.q, w.k, w.v);
    res.outputRelError = outputError(res.output, dense.output);
}

} // namespace

void
fillPipelineQuality(const AttentionWorkload &w, int k,
                    PipelineResult &res)
{
    fillQuality(w, exactScores(w), k, res);
}

PipelineResult
runSofaPipeline(const AttentionWorkload &w, const PipelineConfig &cfg)
{
    // Single-head wrapper: one HeadTask through the stage engine.
    EngineConfig ecfg;
    ecfg.pipeline = cfg;
    HeadTask task;
    task.workload = &w;
    EngineResult er = Engine(ecfg).run(std::vector<HeadTask>{task});
    return std::move(er.heads[0].result);
}

PipelineResult
runBaselinePipeline(const AttentionWorkload &w, double topk_frac,
                    int block_cols)
{
    SOFA_ASSERT(topk_frac > 0.0 && topk_frac <= 1.0);
    PipelineResult res;
    const int S = w.spec.seq;
    const int k = pipelineKeepCount(topk_frac, S);

    // Pre-compute with 4-bit multiplications: K-hat = X Wk and
    // A-hat = Q K-hat^T, both as real (narrow) multiplies. Charged at
    // 4-bit cost via the width-scaled cost model at reporting time;
    // here we tally raw op counts.
    const std::int64_t T = w.spec.queries;
    const std::int64_t n = w.spec.tokenDim;
    const std::int64_t d = w.spec.headDim;
    res.predictionOps.mulN(S * n * d);          // K-hat
    res.predictionOps.addN(S * n * (d - 1));
    res.predictionOps.mulN(T * S * d);          // A-hat
    res.predictionOps.addN(T * S * (d - 1));

    // The baseline predictor sees quantization noise comparable to
    // 4-bit arithmetic; selection quality is modeled on the exact
    // scores (favoring the baseline — reductions we report against it
    // are therefore conservative).
    const MatF scores = exactScores(w);
    SelectionList sel = vanillaTopKRows(scores, k, &res.sortOps);
    res.selections = sel;

    // Full KV generation: all S keys are produced regardless of need.
    res.keysGenerated = S;
    res.formalOps += kvGenerationOps(S, n, d);

    // Formal compute: sparse FA-2 without sorting information.
    SufaResult fa2 = sparseFlash2(w.q, w.k, w.v, sel, block_cols);
    res.formalOps += fa2.ops;
    res.output = std::move(fa2.output);

    fillQuality(w, scores, k, res);
    return res;
}

double
minimalKeepFraction(const AttentionWorkload &w,
                    const PipelineConfig &base_cfg, double loss_percent,
                    PipelineResult *result_out)
{
    // Bisection over the keep fraction; the loss proxy decreases
    // monotonically as more keys are kept.
    double lo = 0.01, hi = 1.0;
    PipelineConfig cfg = base_cfg;
    PipelineResult best;
    double best_frac = hi;

    for (int iter = 0; iter < 12; ++iter) {
        const double mid = 0.5 * (lo + hi);
        cfg.topkFrac = mid;
        PipelineResult r = runSofaPipeline(w, cfg);
        if (r.accuracyLossPct <= loss_percent) {
            best = r;
            best_frac = mid;
            hi = mid;
        } else {
            lo = mid;
        }
    }
    if (best_frac == 1.0) {
        cfg.topkFrac = 1.0;
        best = runSofaPipeline(w, cfg);
    }
    if (result_out)
        *result_out = std::move(best);
    return best_frac;
}

} // namespace sofa
