/**
 * @file
 * Wall-clock micro-benchmarks of the simulator's core kernels: DLZS
 * prediction, SADS sorting, SU-FA vs FA-2 execution, and RASS
 * scheduling. These preserve the coverage of the pre-rewrite
 * bench_kernels (which now benchmarks the tensor kernel layer) as a
 * self-contained chrono harness with no Google Benchmark dependency.
 * Every metric is a machine-dependent latency, recorded for the
 * cross-PR trajectory but never golden-gated (nocheck).
 */

#include <cstdio>
#include <functional>

#include "benchmain.h"
#include "benchutil.h"

#include "arch/rass.h"
#include "attention/flash.h"
#include "core/dlzs.h"
#include "core/sads.h"
#include "core/sufa.h"
#include "model/workload.h"
#include "sparsity/topk.h"

namespace {

using namespace sofa;

/** Print and record best-of-reps latency for one case. */
void
report(bench::Reporter &rep, const char *name,
       const std::function<void()> &fn, double min_total = 0.4)
{
    const double best = benchutil::timeBest(fn, min_total, 10);
    std::printf("%-28s %10.3f ms\n", name, best * 1e3);
    std::string metric(name);
    for (auto &c : metric)
        if (c == '/' || c == '=')
            c = '_';
    rep.metric(metric + "_ms", best * 1e3, "ms").nocheck();
}

AttentionWorkload &
sharedWorkload(const bench::Options &opts)
{
    static AttentionWorkload w = [&opts] {
        WorkloadSpec spec;
        spec.seq = 1024;
        spec.queries = 32;
        spec.headDim = 64;
        spec.tokenDim = 64;
        spec.seed = opts.seedOr(spec.seed);
        return generateWorkload(spec);
    }();
    return w;
}

int
run(const bench::Options &opts, bench::Reporter &rep)
{
    auto &w = sharedWorkload(opts);
    const MatF scores = exactScores(w);
    // Quick tier: one timing sample per case; the artifact is for
    // trajectory only, never gated, so noise is acceptable there.
    const double min_total = opts.quick ? 0.0 : 0.4;
    std::printf("simulator kernel latency (seq=1024, queries=32, "
                "d=64; best of several reps)\n\n");

    report(rep, "dlzs_predict", [&] {
        auto pred = dlzsPredict(w.tokens, w.wk, w.q);
        (void)pred;
    }, min_total);

    for (const int segments : {1, 4, 16}) {
        char name[64];
        std::snprintf(name, sizeof(name), "sads_topk/segments=%d",
                      segments);
        SadsConfig cfg;
        cfg.segments = segments;
        report(rep, name, [&] {
            auto res = sadsTopK(scores, 204, cfg);
            (void)res;
        }, min_total);
    }

    report(rep, "vanilla_topk", [&] {
        OpCounter ops;
        auto sel = vanillaTopKRows(scores, 204, &ops);
        (void)sel;
    }, min_total);

    {
        auto sel = exactTopKRows(scores, 204);
        report(rep, "sufa_descending", [&] {
            auto res = sufaAttention(w.q, w.k, w.v, sel, {});
            (void)res;
        }, min_total);
        report(rep, "sparse_fa2/Bc=16", [&] {
            auto res = sparseFlash2(w.q, w.k, w.v, sel, 16);
            (void)res;
        }, min_total);
    }

    for (const int bc : {4, 16, 64}) {
        char name[64];
        std::snprintf(name, sizeof(name), "flash2_dense/Bc=%d", bc);
        report(rep, name, [&] {
            auto res = flashAttention2(w.q, w.k, w.v, {bc});
            (void)res;
        }, min_total);
    }

    {
        auto sel = sadsTopK(scores, 128, {}).selections();
        for (const int lanes : {16, 64}) {
            char name[64];
            std::snprintf(name, sizeof(name), "rass_schedule/pe=%d",
                          lanes);
            report(rep, name, [&] {
                auto res = scheduleRass(sel, lanes);
                (void)res;
            }, min_total);
        }
    }
    return 0;
}

} // namespace

SOFA_BENCH_MAIN("sim", run)
