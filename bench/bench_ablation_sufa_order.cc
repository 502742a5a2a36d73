/**
 * @file
 * Ablation — SU-FA update order (Fig. 10): descending vs ascending
 * vs sparse FA-2 complexity on executed kernels, and the sensitivity
 * of descending's advantage to prediction ordering noise.
 */

#include <cstdio>

#include "benchmain.h"
#include "common/stats.h"
#include "core/sufa.h"
#include "model/workload.h"
#include "sparsity/topk.h"

using namespace sofa;

namespace {

int
run(const bench::Options &opts, bench::Reporter &rep)
{
    std::printf("=== SU-FA order ablation ===\n");
    std::printf("%8s %6s | %12s %12s %12s | %10s %10s\n", "S", "k",
                "desc", "asc", "sparse-FA2", "d/f ratio",
                "d/a ratio");

    for (int seq : {512, 1024, 2048}) {
        WorkloadSpec spec;
        spec.seq = seq;
        spec.queries = 16;
        spec.headDim = 64;
        spec.tokenDim = 64;
        spec.seed = opts.seedOr(0xAB1 + seq);
        auto w = generateWorkload(spec);
        const int k = seq / 4;
        auto sel = exactTopKRows(exactScores(w), k);

        SufaConfig desc, asc;
        asc.order = SufaOrder::Ascending;
        auto rd = sufaAttention(w.q, w.k, w.v, sel, desc);
        auto ra = sufaAttention(w.q, w.k, w.v, sel, asc);
        auto rf = sparseFlash2(w.q, w.k, w.v, sel, 4);

        const double d = rd.ops.normalized();
        const double a = ra.ops.normalized();
        const double f = rf.ops.normalized();
        std::printf("%8d %6d | %12.0f %12.0f %12.0f | %9.1f%% "
                    "%9.1f%%\n",
                    seq, k, d, a, f, 100.0 * (1.0 - d / f),
                    100.0 * (1.0 - d / a));
        if (seq == 1024) {
            rep.metric("desc_vs_fa2_saving", 1.0 - d / f,
                       "fraction").paper(0.25).tol(0.01);
            rep.metric("desc_vs_asc_saving", 1.0 - d / a,
                       "fraction").paper(0.11).tol(0.01);
        }
    }
    std::printf("\nPaper: descending reduces ~25%% vs traditional FA "
                "and ~11%% vs ascending\n(softmax-side ops; MAC-"
                "dominated totals dilute the ratio).\n");

    std::printf("\n--- sensitivity to prediction-order noise ---\n");
    WorkloadSpec spec;
    spec.seq = 1024;
    spec.queries = 32;
    spec.seed = opts.seedOr(spec.seed);
    auto w = generateWorkload(spec);
    auto sel = exactTopKRows(exactScores(w), 256);
    Rng rng(opts.seedOr(17));
    std::printf("%12s | %12s %14s\n", "swap frac", "violations",
                "extra energy ops");
    for (double noise : {0.0, 0.05, 0.2, 0.5}) {
        SelectionList noisy = sel;
        for (auto &row : noisy) {
            const int swaps =
                static_cast<int>(noise * row.size());
            for (int s = 0; s < swaps; ++s) {
                auto i = static_cast<std::size_t>(
                    rng.uniformInt(0, row.size() - 1));
                auto j = static_cast<std::size_t>(
                    rng.uniformInt(0, row.size() - 1));
                std::swap(row[i], row[j]);
            }
        }
        auto r = sufaAttention(w.q, w.k, w.v, noisy, {});
        std::printf("%12.2f | %12lld %14lld\n", noise,
                    static_cast<long long>(r.maxViolations),
                    static_cast<long long>(r.ops.exps()));
        if (noise == 0.0) {
            // Perfectly ordered input: the max-ensuring circuit
            // should see zero violations.
            rep.metric("violations_noise0",
                       static_cast<double>(r.maxViolations), "count")
                .tol(0.0).atol(0.5);
        }
        if (noise == 0.5) {
            rep.metric("violations_noise50",
                       static_cast<double>(r.maxViolations), "count")
                .tol(0.05);
        }
    }
    std::printf("\nMax-ensure keeps results exact at every noise "
                "level; cost degrades gracefully.\n");
    return 0;
}

} // namespace

SOFA_BENCH_MAIN("ablation_sufa_order", run)
