/**
 * @file
 * Engine-level benchmark: the stage-structured batched multi-head
 * execution engine (core/engine) over the paper's LTPP serving
 * regimes — prefill, disaggregated prefill, speculative decode and
 * plain KV-cache decode (Section I). Reports per-scenario op
 * throughput (Gop/s), decode-vs-prefill formal-op ratios, KV
 * generation/cache fractions and recall, verifies the engine is
 * bit-exact against a per-head runSofaPipeline loop, and measures
 * the SU-FA dotBlock kernel port against the scalar baseline plus
 * the serial-vs-pool thread scaling. Timings are machine-dependent
 * (nocheck, trajectory only); op ratios, fractions and the
 * bit-exactness bit are golden-gated.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "benchmain.h"
#include "benchutil.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "core/engine.h"
#include "model/config.h"
#include "model/scenarios.h"
#include "tensor/simd.h"

namespace {

using namespace sofa;
using benchutil::timeBest;

struct ScenarioRun
{
    std::string name;
    ModelWorkloadSpec spec;
    EngineResult result;
    double seconds = 0.0;
    double totalOpsN = 0.0; ///< normalized complexity of the run
};

/** Per-query-row normalized formal complexity (the decode currency). */
double
formalPerRow(const ScenarioRun &r)
{
    const double rows = static_cast<double>(r.spec.batch) *
                        r.spec.heads * r.spec.queryRows();
    return r.result.formalOps.normalized() / rows;
}

int
run(const bench::Options &opts, bench::Reporter &rep)
{
    std::printf("engine benchmark: stage-structured batched "
                "multi-head pipeline (%d thread%s)\n\n", opts.threads,
                opts.threads == 1 ? "" : "s");

    // Scenario grid: one per serving regime, functional scale.
    const auto model = models::llama7b();
    const int ctx = opts.quick ? 256 : 512;
    const int max_batch = opts.quick ? 2 : 4;
    const int max_heads = opts.quick ? 2 : 4;
    std::vector<ScenarioRun> runs;
    for (const auto &s : representativeScenarios(model)) {
        ScenarioRun r;
        r.name = servingModeName(s.mode);
        r.spec = scenarioWorkloadSpec(s, ctx, max_batch, max_heads);
        r.spec.seed = opts.seedOr(0x50FAE000ull + runs.size());
        runs.push_back(std::move(r));
    }

    EngineConfig ecfg;
    ecfg.pipeline.topkFrac = 0.2;

    Table t;
    t.column("scenario", Align::Left)
        .column("B")
        .column("H")
        .column("T")
        .column("S")
        .column("cached")
        .column("Gop/s")
        .column("keys gen%")
        .column("mass recall")
        .column("formal/row");
    for (auto &r : runs) {
        const ModelWorkload mw = generateModelWorkload(r.spec);
        r.seconds = timeBest(
            [&] { r.result = runEngine(mw, ecfg); }, 0.25, 4);
        r.totalOpsN = r.result.totalOps().normalized();
        const double total_keys = static_cast<double>(r.spec.batch) *
                                  r.spec.heads * r.spec.contextLen();
        const double gen_frac = static_cast<double>(
                                    r.result.keysGenerated) /
                                total_keys;
        const double gops =
            static_cast<double>(r.result.totalOps().total()) /
            r.seconds / 1e9;
        t.row()
            .cell(r.name)
            .cell(static_cast<std::int64_t>(r.spec.batch))
            .cell(static_cast<std::int64_t>(r.spec.heads))
            .cell(static_cast<std::int64_t>(r.spec.queryRows()))
            .cell(static_cast<std::int64_t>(r.spec.contextLen()))
            .cell(static_cast<std::int64_t>(r.result.keysCached))
            .cell(gops, 2)
            .cell(100.0 * gen_frac, 1)
            .cell(r.result.meanMassRecall, 3)
            .cell(formalPerRow(r), 0);

        rep.metric(r.name + "_gops", gops, "gops").nocheck();
        rep.metric(r.name + "_seconds", r.seconds, "s").nocheck();
        rep.metric(r.name + "_keys_generated_frac", gen_frac,
                   "fraction").tol(0.05).atol(0.01);
        rep.metric(r.name + "_mass_recall",
                   r.result.meanMassRecall, "fraction").tol(0.02);
        rep.metric(r.name + "_formal_per_row", formalPerRow(r),
                   "normalized ops").tol(0.05);
    }
    std::printf("%s\n", t.render().c_str());

    // Decode-vs-prefill formal-op ratios: the KV cache plus tiny T
    // collapse the per-row formal cost of decode steps.
    const ScenarioRun *prefill = nullptr, *decode = nullptr,
                      *spec = nullptr;
    for (const auto &r : runs) {
        if (r.name == std::string("prefill"))
            prefill = &r;
        if (r.name == std::string("decode"))
            decode = &r;
        if (r.name == std::string("speculative"))
            spec = &r;
    }
    if (prefill && decode && spec) {
        const double decode_ratio =
            formalPerRow(*decode) / formalPerRow(*prefill);
        const double spec_ratio =
            formalPerRow(*spec) / formalPerRow(*prefill);
        std::printf("formal ops per query row vs prefill: "
                    "decode %.3fx, speculative %.3fx\n",
                    decode_ratio, spec_ratio);
        rep.metric("decode_vs_prefill_formal_ratio", decode_ratio,
                   "ratio").tol(0.05);
        rep.metric("speculative_vs_prefill_formal_ratio", spec_ratio,
                   "ratio").tol(0.05);
        const double cached_frac =
            static_cast<double>(decode->result.keysCached) /
            static_cast<double>(decode->result.keysCached +
                                decode->result.keysGenerated);
        rep.metric("decode_keys_cached_frac", cached_frac,
                   "fraction").tol(0.02);
    }

    // Bit-exactness vs a per-head runSofaPipeline loop (the
    // refactor's contract), on a small multi-head decode+prefill mix.
    {
        ModelWorkloadSpec ms;
        ms.batch = 2;
        ms.heads = 2;
        ms.seq = 128;
        ms.queries = 16;
        ms.mixture = model.mixture;
        ms.seed = opts.seedOr(0x50FAE100ull);
        const ModelWorkload mw = generateModelWorkload(ms);
        const EngineResult er = runEngine(mw, ecfg);
        bool match = true;
        for (const HeadResult &hr : er.heads) {
            const PipelineResult ref = runSofaPipeline(
                mw.head(hr.batch, hr.head), ecfg.pipeline);
            match = match && hr.result.output == ref.output &&
                    hr.result.selections == ref.selections &&
                    hr.result.totalOps().total() ==
                        ref.totalOps().total() &&
                    hr.result.keysGenerated == ref.keysGenerated;
        }
        std::printf("engine vs per-head pipeline loop: %s\n",
                    match ? "bit-exact" : "MISMATCH");
        rep.metric("engine_matches_perhead", match ? 1.0 : 0.0,
                   "bool").tol(0.0);
        if (!match) {
            std::fprintf(stderr, "FAIL: engine diverged from the "
                                 "per-head pipeline loop\n");
            return 1;
        }
    }

    // Thread scaling: the prefill scenario serial vs the pool.
    if (prefill) {
        const ModelWorkload mw = generateModelWorkload(prefill->spec);
        double serial_s;
        {
            ThreadPool::ScopedSerial serial;
            serial_s = timeBest([&] { (void)runEngine(mw, ecfg); },
                                0.25, 3);
        }
        const double speedup = serial_s / prefill->seconds;
        std::printf("prefill thread scaling: serial %.3fs vs pool "
                    "%.3fs (%.2fx, %d threads)\n", serial_s,
                    prefill->seconds, speedup, opts.threads);
        rep.metric("prefill_serial_seconds", serial_s, "s").nocheck();
        rep.metric("prefill_thread_speedup", speedup, "ratio")
            .nocheck();
    }

    // Whole-engine SIMD dispatch: the same prefill run with the
    // kernels forced scalar vs forced AVX2. Because every SIMD body
    // is bit-identical to its scalar baseline, the two runs must
    // agree on every output and op count (golden-gated bit); the
    // speedup is the end-to-end win of the explicit-SIMD layer.
    const auto sameEngineResults = [](const EngineResult &x,
                                      const EngineResult &y) {
        if (x.heads.size() != y.heads.size())
            return false;
        for (std::size_t i = 0; i < x.heads.size(); ++i) {
            const HeadResult &a = x.heads[i];
            const HeadResult &b = y.heads[i];
            if (!(a.result.output == b.result.output &&
                  a.result.selections == b.result.selections &&
                  a.result.totalOps().total() ==
                      b.result.totalOps().total() &&
                  a.result.keysGenerated == b.result.keysGenerated))
                return false;
        }
        return x.totalOps().total() == y.totalOps().total() &&
               x.keysGenerated == y.keysGenerated;
    };
    if (prefill) {
        const ModelWorkload mw = generateModelWorkload(prefill->spec);
        EngineResult scalar_res, simd_res;
        double scalar_s, simd_s;
        {
            simd::ScopedLevel lvl(simd::Level::Scalar);
            scalar_s = timeBest(
                [&] { scalar_res = runEngine(mw, ecfg); }, 0.25, 3);
        }
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            simd_s = timeBest(
                [&] { simd_res = runEngine(mw, ecfg); }, 0.25, 3);
        }
        const bool match = sameEngineResults(scalar_res, simd_res);
        const double speedup = scalar_s / simd_s;
        std::printf("engine simd dispatch (%s): scalar %.3fs vs "
                    "simd %.3fs (%.2fx), results %s\n",
                    simd::levelName(simd::detected()), scalar_s,
                    simd_s, speedup,
                    match ? "bit-exact" : "MISMATCH");
        rep.metric("engine_simd_speedup", speedup, "ratio").nocheck();
        rep.metric("engine_simd_match", match ? 1.0 : 0.0, "bool")
            .tol(0.0);
    }

    // SU-FA inner-product kernel port: dotBlock vs the scalar
    // baseline on one prefill head (the trajectory metric the
    // ROADMAP's perf thread tracks).
    if (prefill) {
        const ModelWorkload mw = generateModelWorkload(prefill->spec);
        const AttentionWorkload &w = mw.head(0, 0);
        const EngineResult er = runEngine(mw, ecfg);
        const SelectionList &sel = er.heads[0].result.selections;
        SufaConfig blocked, scalar;
        blocked.blockedDot = true;
        scalar.blockedDot = false;
        SufaResult rb, rs;
        const double blocked_s = timeBest(
            [&] { rb = sufaAttention(w.q, w.k, w.v, sel, blocked); },
            0.25, 6);
        const double scalar_s = timeBest(
            [&] { rs = sufaAttention(w.q, w.k, w.v, sel, scalar); },
            0.25, 6);
        const double speedup = scalar_s / blocked_s;
        std::printf("SU-FA inner products: scalar %.4fs vs dotBlock "
                    "%.4fs (%.2fx)\n", scalar_s, blocked_s, speedup);
        rep.metric("sufa_scalar_seconds", scalar_s, "s").nocheck();
        rep.metric("sufa_dotblock_seconds", blocked_s, "s").nocheck();
        rep.metric("sufa_dotblock_speedup", speedup, "ratio")
            .nocheck();
        // Op counts must be identical across the two paths — only
        // the float summation order differs.
        rep.metric("sufa_dotblock_ops_match",
                   rb.ops.total() == rs.ops.total() ? 1.0 : 0.0,
                   "bool").tol(0.0);
    }

    rep.metric("stages",
               static_cast<double>(
                   Engine(ecfg).stageNames().size()),
               "count").tol(0.0);
    return 0;
}

} // namespace

SOFA_BENCH_MAIN("engine", run)
