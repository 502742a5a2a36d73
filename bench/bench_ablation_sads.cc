/**
 * @file
 * Ablation — SADS segment count and clipping radius: comparison
 * savings vs vanilla whole-row sorting, and the softmax-mass recall
 * each configuration retains (the DCE accuracy argument of Fig. 9).
 */

#include <cstdio>

#include "benchmain.h"
#include "core/sads.h"
#include "model/workload.h"
#include "sparsity/metrics.h"

using namespace sofa;

namespace {

int
run(const bench::Options &opts, bench::Reporter &rep)
{
    WorkloadSpec spec;
    spec.seq = opts.quick ? 1024 : 2048;
    spec.queries = 64;
    spec.mixture = {0.25, 0.75, 0.0};
    spec.seed = opts.seedOr(0x5AD5);
    const MatF scores = exactScores(generateWorkload(spec));
    const int k = spec.seq / 5;

    const double vanilla_cmp = static_cast<double>(
        vanillaSortComparisons(spec.queries, spec.seq));

    std::printf("=== SADS segment-count sweep (S=%d, k=20%%) ===\n",
                spec.seq);
    std::printf("%9s | %14s %9s | %9s %9s\n", "segments",
                "comparisons", "vs full", "recall", "mass");
    for (int n : {1, 2, 4, 8, 16, 32}) {
        SadsConfig cfg;
        cfg.segments = n;
        auto res = sadsTopK(scores, k, cfg);
        auto exact = exactTopKRows(scores, k);
        const double cmp_frac = res.ops.cmps() / vanilla_cmp;
        const double recall = topkRecall(res.selections(), exact);
        const double mass =
            softmaxMassRecall(scores, res.selections());
        std::printf("%9d | %14lld %8.1f%% | %8.1f%% %8.1f%%\n", n,
                    static_cast<long long>(res.ops.cmps()),
                    100.0 * cmp_frac, 100.0 * recall, 100.0 * mass);
        if (n == 4 || n == 16) {
            char name[64];
            std::snprintf(name, sizeof(name), "cmp_frac_seg%d", n);
            rep.metric(name, cmp_frac, "fraction").tol(0.01);
            std::snprintf(name, sizeof(name), "mass_seg%d", n);
            rep.metric(name, mass, "fraction").tol(0.02);
            if (n == 16) {
                rep.metric("recall_seg16", recall, "fraction")
                    .tol(0.02);
            }
        }
    }

    std::printf("\n=== clipping-radius sweep (4 segments) ===\n");
    std::printf("%9s | %12s %9s %9s\n", "radius", "clipped",
                "mass", "cmp-saved");
    SadsConfig base;
    base.segments = 4;
    auto open = sadsTopK(scores, k, base);
    for (double r : {1.0, 0.6, 0.4, 0.25, 0.15}) {
        SadsConfig cfg = base;
        cfg.radiusFrac = r;
        auto res = sadsTopK(scores, k, cfg);
        std::int64_t clipped = 0;
        for (const auto &row : res.rows)
            clipped += row.clipped;
        const double mass =
            softmaxMassRecall(scores, res.selections());
        const double cmp_saved =
            1.0 -
            static_cast<double>(res.ops.cmps()) / open.ops.cmps();
        std::printf("%9.2f | %12lld %8.1f%% %8.1f%%\n", r,
                    static_cast<long long>(clipped), 100.0 * mass,
                    100.0 * cmp_saved);
        if (r == 0.4) {
            rep.metric("cmp_saved_radius40", cmp_saved, "fraction")
                .tol(0.02);
            rep.metric("mass_radius40", mass, "fraction").tol(0.02);
        }
    }
    std::printf("\nShape: few segments ~ exact; more segments save "
                "comparisons with modest mass loss;\nclipping saves "
                "switching with negligible mass loss until the "
                "radius gets aggressive.\n");
    return 0;
}

} // namespace

SOFA_BENCH_MAIN("ablation_sads", run)
