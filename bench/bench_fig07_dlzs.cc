/**
 * @file
 * Fig. 7 — DLZS vs the vanilla leading-zero scheme: per-product
 * estimation error (debiased), runtime converter count, and DRAM
 * storage per weight (8-bit integer vs 5-bit sign+LZ code), plus the
 * end-to-end prediction quality of the two-phase DLZS flow.
 */

#include <cmath>
#include <cstdio>

#include "benchmain.h"
#include "common/stats.h"
#include "core/dlzs.h"
#include "model/workload.h"
#include "sparsity/metrics.h"
#include "sparsity/topk.h"

using namespace sofa;

namespace {

int
run(const bench::Options &opts, bench::Reporter &rep)
{
    std::printf("=== Fig. 7: DLZS vs vanilla leading-zero scheme "
                "===\n");

    // Per-product error over uniform int8 operand pairs, after
    // removing each scheme's systematic bias (the descale stage).
    Rng rng(opts.seedOr(0x7D1));
    const int n = opts.quick ? 5000 : 20000;
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
    const double d_bias = mean(d_ratio), v_bias = mean(v_ratio);
    double d_err = 0.0, v_err = 0.0;
    for (int i = 0; i < n; ++i) {
        d_err += std::fabs(d_ratio[i] / d_bias - 1.0) / n;
        v_err += std::fabs(v_ratio[i] / v_bias - 1.0) / n;
    }
    std::printf("%-32s | %10s %10s\n", "", "vanilla", "DLZS");
    std::printf("%-32s | %9.1f%% %9.1f%%  (paper: 'half error')\n",
                "debiased mean relative error", 100.0 * v_err,
                100.0 * d_err);
    std::printf("%-32s | %10s %10s  (paper: 2 -> 1, then 0 with\n"
                "%-32s | %10s %10s   pre-converted weights)\n",
                "runtime converters per product", "2", "0",
                "(K-prediction phase)", "", "");

    rep.metric("vanilla_debiased_err", v_err, "fraction").tol(1e-3);
    rep.metric("dlzs_debiased_err", d_err, "fraction").tol(1e-3);
    rep.metric("dlzs_err_ratio", d_err / v_err, "ratio")
        .paper(0.5).tol(1e-3);

    // Storage: int8 weight vs sign + 4-bit LZ code.
    MatI8 probe(1, 1);
    LzMatrix lz = lzEncodeI8(probe);
    std::printf("%-32s | %9db %9db  (paper: 8b -> 4b+sign)\n",
                "DRAM bits per weight", 8, lz.bitsPerElement());
    rep.metric("lz_bits_per_weight", lz.bitsPerElement(), "bits")
        .paper(5).tol(0.0);

    // End-to-end: two-phase DLZS prediction quality on a workload.
    std::printf("\n--- two-phase prediction quality (S=1024, T=64) "
                "---\n");
    WorkloadSpec spec;
    spec.seq = 1024;
    spec.queries = 64;
    spec.seed = opts.seedOr(spec.seed);
    auto w = generateWorkload(spec);
    DlzsPrediction pred = dlzsPredict(w.tokens, w.wk, w.q);
    const MatF scores = exactScores(w);
    for (double keep : {0.1, 0.2, 0.3}) {
        const int k = static_cast<int>(keep * spec.seq);
        auto sel = exactTopKRows(pred.scoresHat, k);
        auto oracle = exactTopKRows(scores, k);
        const double recall = topkRecall(sel, oracle);
        const double mass = softmaxMassRecall(scores, sel);
        std::printf("keep %4.0f%%: top-k recall %5.1f%%, softmax "
                    "mass %5.1f%% (oracle %5.1f%%)\n",
                    100.0 * keep, 100.0 * recall, 100.0 * mass,
                    100.0 * softmaxMassRecall(scores, oracle));
        if (keep == 0.2) {
            // Discrete top-k selections: near-ties may flip across
            // compilers, so the bound is looser than the default.
            rep.metric("recall_keep20", recall, "fraction").tol(0.02);
            rep.metric("softmax_mass_keep20", mass, "fraction")
                .tol(0.02);
        }
    }
    std::printf("\nPrediction is multiplier-free: %lld multiplies, "
                "%lld shifts, %lld adds.\n",
                static_cast<long long>(pred.ops.muls()),
                static_cast<long long>(pred.ops.shifts()),
                static_cast<long long>(pred.ops.adds()));
    rep.metric("prediction_muls",
               static_cast<double>(pred.ops.muls()), "ops")
        .paper(0).tol(0.0);
    return 0;
}

} // namespace

SOFA_BENCH_MAIN("fig07_dlzs", run)
