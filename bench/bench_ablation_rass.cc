/**
 * @file
 * Ablation — RASS scheduling (Fig. 15): the paper's 4-query example,
 * plus traffic on realistic SADS selections across buffer sizes and
 * sharing levels (paper example: 33% reduction; fleet average ~23%).
 */

#include <cstdio>

#include "arch/rass.h"
#include "benchmain.h"
#include "common/stats.h"
#include "core/sads.h"
#include "model/workload.h"

using namespace sofa;

namespace {

int
run(const bench::Options &opts, bench::Reporter &rep)
{
    std::printf("=== RASS ablation ===\n");

    // The Fig. 15 worked example.
    SelectionList example = {
        {0, 1, 2, 3, 4, 5},
        {2, 3, 4, 5, 6, 7},
        {2, 3, 5, 6},
        {0, 1, 4, 7},
    };
    auto naive = scheduleNaive(example, 4);
    auto rass = scheduleRass(example, 4);
    const double example_saved =
        1.0 - static_cast<double>(rass.vectorLoads) /
                  naive.vectorLoads;
    std::printf("Fig. 15 example: naive %lld vectors, RASS %lld "
                "vectors (%.0f%% reduction; paper 33%%)\n",
                static_cast<long long>(naive.vectorLoads),
                static_cast<long long>(rass.vectorLoads),
                100.0 * example_saved);
    rep.metric("example_naive_loads",
               static_cast<double>(naive.vectorLoads), "count")
        .tol(0.0);
    rep.metric("example_rass_loads",
               static_cast<double>(rass.vectorLoads), "count")
        .tol(0.0);
    rep.metric("example_saved_frac", example_saved, "fraction")
        .paper(0.33);

    std::printf("\n%-14s %8s | %10s %10s %8s\n", "mixture", "buffer",
                "naive", "RASS", "saved");
    std::vector<double> savings;
    struct Mix { const char *label; DistMixture m; };
    for (const auto &mx :
         {Mix{"TypeI-heavy", {0.6, 0.4, 0.0}},
          Mix{"TypeII", {0.1, 0.9, 0.0}},
          Mix{"Llama-like", {0.25, 0.745, 0.005}}}) {
        WorkloadSpec spec;
        spec.seq = 512;
        spec.queries = 64;
        spec.mixture = mx.m;
        spec.seed = opts.seedOr(0x4A55 + mx.m.type1 * 100);
        auto sel = sadsTopK(exactScores(generateWorkload(spec)), 64, {})
                       .selections();
        for (int buf : {16, 64, 256}) {
            auto n = scheduleNaive(sel, buf);
            auto r = scheduleRass(sel, buf);
            const double saved =
                1.0 - static_cast<double>(r.vectorLoads) /
                          static_cast<double>(n.vectorLoads);
            savings.push_back(saved);
            std::printf("%-14s %8d | %10lld %10lld %7.1f%%\n",
                        mx.label, buf,
                        static_cast<long long>(n.vectorLoads),
                        static_cast<long long>(r.vectorLoads),
                        100.0 * saved);
        }
    }
    std::printf("\nMean saving: %.1f%% (paper average ~23%%)\n",
                100.0 * mean(savings));
    // SADS selections are discrete; a near-tie flip moves a load or
    // two out of a few thousand.
    rep.metric("mean_saved_frac", mean(savings), "fraction")
        .paper(0.23).tol(0.02);
    return 0;
}

} // namespace

SOFA_BENCH_MAIN("ablation_rass", run)
