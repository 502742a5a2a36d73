/**
 * @file
 * Multi-backend fleet benchmark: the serving scheduler routing an
 * open-loop mixed trace across a fleet of EngineBackends
 * (serve/backend). Sweeps the backend count (1 -> 2 -> 4) and
 * reports measured aggregate Gop/s per fleet size (machine-dependent:
 * nocheck, trajectory family fleetN_gops), plus the deterministic
 * cycle-model scaling curve — each request's head tasks priced by
 * calling the arch/accelerator model on their shapes, round-robin
 * assigned, fleet makespan = the busiest backend's modeled seconds —
 * which is golden-gated and provably monotone for the 1/2/4 ladder
 * (finer power-of-two round-robin partitions only ever split a
 * busiest group). Bit-exactness vs a sequential per-request
 * Engine::run loop, exact op conservation and routed-placement
 * balance are golden bits at tol 0 for every fleet size; a
 * mixed-capability fleet (decode-capable, prefill-only,
 * decode-capable) under Disaggregated routing re-checks the same
 * contract, and a what-if section prices the trace on the
 * baselines/ GPU/TPU roofline models.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "baselines/gpu.h"
#include "baselines/tpu.h"
#include "benchmain.h"
#include "benchutil.h"
#include "common/table.h"
#include "serve/backend.h"
#include "serve/scheduler.h"
#include "model/config.h"

namespace {

using namespace sofa;
using serve::Backend;
using serve::BackendStats;
using serve::EngineBackend;
using serve::EngineBackendConfig;
using serve::Outcome;
using serve::Request;
using serve::RequestKind;
using serve::RequestResult;
using serve::RoutingPolicy;
using serve::Scheduler;
using serve::SchedulerConfig;

/** Wall-clock seconds of one fn() call. */
template <typename Fn>
double
timeTrace(const Fn &fn)
{
    const double t0 = benchutil::now();
    fn();
    return benchutil::now() - t0;
}

/** The grid of @p mw as explicit HeadTasks (for modeled pricing). */
std::vector<HeadTask>
gridTasks(const ModelWorkload &mw)
{
    std::vector<HeadTask> tasks;
    for (int b = 0; b < mw.batch(); ++b) {
        for (int h = 0; h < mw.heads(); ++h) {
            HeadTask t;
            t.workload = &mw.head(b, h);
            t.batch = b;
            t.head = h;
            t.pastLen = mw.spec.isDecode() ? mw.spec.pastLen : 0;
            tasks.push_back(t);
        }
    }
    return tasks;
}

/** Fleet of @p n EngineBackends sharing the scheduler's pool. */
std::vector<std::shared_ptr<Backend>>
engineFleet(int n, const EngineConfig &ecfg)
{
    std::vector<std::shared_ptr<Backend>> fleet;
    for (int i = 0; i < n; ++i) {
        EngineBackendConfig c;
        c.engine = ecfg;
        c.name = "engine" + std::to_string(i);
        fleet.push_back(std::make_shared<EngineBackend>(c));
    }
    return fleet;
}

/** The arch-model shape of one head task. Cached keys ([0, pastLen))
 * shrink the key-coverage fraction: the cycle model then charges
 * on-demand generation only for the uncached span, mirroring what
 * the engine's KV stage actually computes. */
AttentionShape
shapeOf(const HeadTask &t)
{
    AttentionShape s;
    const WorkloadSpec &ws = t.workload->spec;
    s.queries = ws.queries;
    s.seq = ws.seq;
    s.headDim = ws.headDim;
    s.heads = 1;
    s.tokenDim = ws.tokenDim;
    if (t.pastLen > 0 && ws.seq > 0) {
        const int cached = std::min(t.pastLen, ws.seq);
        s.keyCoverage *=
            static_cast<double>(ws.seq - cached) /
            static_cast<double>(ws.seq);
    }
    return s;
}

/** Per-request modeled seconds: @p task_ns (a model's latency in ns
 * for one head shape) summed over each request's head tasks. */
template <typename TaskNs>
std::vector<double>
modeledSecondsPerRequest(const std::vector<ModelWorkload> &works,
                         const TaskNs &task_ns)
{
    std::vector<double> modeled;
    modeled.reserve(works.size());
    for (const ModelWorkload &mw : works) {
        double s = 0.0;
        for (const HeadTask &t : gridTasks(mw))
            s += task_ns(shapeOf(t)) * 1e-9;
        modeled.push_back(s);
    }
    return modeled;
}

/** Round-robin fleet makespan: the busiest backend's modeled sum. */
double
roundRobinMakespan(const std::vector<double> &per_request, int fleet)
{
    std::vector<double> busy(static_cast<std::size_t>(fleet), 0.0);
    for (std::size_t i = 0; i < per_request.size(); ++i)
        busy[i % static_cast<std::size_t>(fleet)] += per_request[i];
    return *std::max_element(busy.begin(), busy.end());
}

int
run(const bench::Options &opts, bench::Reporter &rep)
{
    std::printf("multi-backend serving benchmark: executor fleet "
                "behind the scheduler (%d thread%s)\n\n",
                opts.threads, opts.threads == 1 ? "" : "s");

    const auto model = models::llama7b();
    const int n = opts.quick ? 12 : 24;
    const int ctx = opts.quick ? 128 : 256;
    const int heads = opts.quick ? 2 : 4;
    const std::uint64_t seed = opts.seedOr(0x50FAF1EEull);
    const std::vector<Request> trace = serve::mixedTrace(
        representativeScenarios(model), n, ArrivalPattern::Poisson,
        1e-3, seed, ctx, /*max_batch=*/1, heads);

    SchedulerConfig scfg;
    scfg.engine.pipeline.topkFrac = 0.2;
    scfg.engine.computeQuality = false; // throughput focus
    scfg.lanes = 2;
    scfg.headBudget = opts.quick ? 8 : 12;
    scfg.faultsFromEnv = false; // hermetic outcome counts

    // Sequential per-request reference: the bit-exactness anchor
    // and the op total every fleet must conserve exactly.
    Engine engine(scfg.engine);
    std::vector<ModelWorkload> works;
    works.reserve(trace.size());
    for (const Request &r : trace)
        works.push_back(generateModelWorkload(r.work));
    std::vector<EngineResult> seq(trace.size());
    const double seq_s = timeTrace([&] {
        for (std::size_t i = 0; i < trace.size(); ++i)
            seq[i] = engine.run(works[i]);
    });
    std::int64_t seq_ops = 0;
    double total_ops = 0.0;
    for (const EngineResult &r : seq) {
        seq_ops += r.totalOps().total();
        total_ops += static_cast<double>(r.totalOps().total());
    }
    rep.metric("seq_wall_s", seq_s, "s").nocheck();
    rep.metric("seq_gops", total_ops / seq_s / 1e9, "gops")
        .nocheck();
    rep.metric("trace_requests", static_cast<double>(trace.size()),
               "count").tol(0.0);

    // Deterministic cycle-model scaling ladder: per-request modeled
    // seconds from the arch/accelerator model, round-robin assigned
    // to the fleet; aggregate modeled Gop/s = ops / makespan. The
    // 1 -> 2 -> 4 ladder refines a power-of-two partition, so the
    // makespan never grows and the curve is monotone by
    // construction — golden-gated, machine-independent. The cycle
    // model prices the keep fraction the engine executes.
    SofaConfig arch;
    arch.topkFrac = scfg.engine.pipeline.topkFrac;
    const SofaAccelerator accel(arch);
    const std::vector<double> modeled = modeledSecondsPerRequest(
        works,
        [&](const AttentionShape &s) { return accel.run(s).timeNs; });
    const std::vector<int> fleets = {1, 2, 4};
    std::vector<double> modeled_gops;
    for (int fleet : fleets) {
        const double makespan = roundRobinMakespan(modeled, fleet);
        modeled_gops.push_back(total_ops / makespan / 1e9);
        rep.metric("modeled_fleet" + std::to_string(fleet) + "_gops",
                   modeled_gops.back(), "gops").tol(1e-4);
    }
    const bool modeled_monotonic =
        modeled_gops[0] < modeled_gops[1] &&
        modeled_gops[1] < modeled_gops[2];
    rep.metric("modeled_scaling_monotonic",
               modeled_monotonic ? 1.0 : 0.0, "bool").tol(0.0);

    // Measured fleet sweep: open-loop replay (every request offered
    // immediately) across 1/2/4 EngineBackends under round-robin
    // placement. Wall-clock scaling is machine-dependent (one core
    // serializes the fleet), so measured Gop/s is trajectory-only;
    // the correctness bits are golden at tolerance 0.
    Table t;
    t.column("fleet", Align::Left)
        .column("wall s")
        .column("Gop/s")
        .column("modeled Gop/s")
        .column("routed/shard")
        .column("bit-exact");
    t.row()
        .cell("sequential")
        .cell(seq_s, 3)
        .cell(total_ops / seq_s / 1e9, 2)
        .cell("-")
        .cell("-")
        .cell("-");
    bool all_exact = true, all_conserved = true;
    for (std::size_t fi = 0; fi < fleets.size(); ++fi) {
        const int fleet = fleets[fi];
        SchedulerConfig cfg = scfg;
        cfg.backends = engineFleet(fleet, cfg.engine);
        cfg.routing = RoutingPolicy::RoundRobin;
        std::vector<RequestResult> results;
        std::vector<BackendStats> shards;
        serve::SchedulerStats stats;
        const double wall = timeTrace([&] {
            Scheduler sched(cfg);
            results = replayTrace(sched, trace, /*time_scale=*/0.0);
            sched.drain();
            shards = sched.backendStats();
            stats = sched.stats();
        });
        const double gops = total_ops / wall / 1e9;

        // Bit-exactness + exact op conservation vs the sequential
        // loop, whatever the placement.
        bool exact = true;
        std::int64_t fleet_ops = 0;
        int completed = 0;
        for (const RequestResult &r : results) {
            completed += r.outcome == Outcome::Completed ? 1 : 0;
            const EngineResult &ref = seq[r.id];
            fleet_ops += r.engine.totalOps().total();
            bool req_ok = r.outcome == Outcome::Completed &&
                          r.engine.heads.size() == ref.heads.size();
            for (std::size_t h = 0;
                 req_ok && h < ref.heads.size(); ++h) {
                const PipelineResult &a = r.engine.heads[h].result;
                const PipelineResult &b = ref.heads[h].result;
                req_ok = a.output == b.output &&
                         a.selections == b.selections &&
                         a.totalOps().total() ==
                             b.totalOps().total();
            }
            exact = exact && req_ok;
        }
        const bool conserved = fleet_ops == seq_ops;
        // Round-robin over n = fleet * k requests: every shard gets
        // exactly n / fleet placements.
        bool balanced = shards.size() ==
                        static_cast<std::size_t>(fleet);
        for (const BackendStats &b : shards)
            balanced = balanced &&
                       b.routed == static_cast<std::int64_t>(
                                       trace.size()) /
                                       fleet;
        all_exact = all_exact && exact;
        all_conserved = all_conserved && conserved;

        const std::string tag = "fleet" + std::to_string(fleet);
        t.row()
            .cell(tag)
            .cell(wall, 3)
            .cell(gops, 2)
            .cell(modeled_gops[fi], 2)
            .cell(static_cast<double>(trace.size()) /
                      static_cast<double>(fleet),
                  0)
            .cell(exact ? "yes" : "NO");
        rep.metric(tag + "_wall_s", wall, "s").nocheck();
        rep.metric(tag + "_gops", gops, "gops").nocheck();
        rep.metric(tag + "_completed",
                   static_cast<double>(completed), "count").tol(0.0);
        rep.metric(tag + "_bitexact_vs_sequential",
                   exact ? 1.0 : 0.0, "bool").tol(0.0);
        rep.metric(tag + "_ops_conserved", conserved ? 1.0 : 0.0,
                   "bool").tol(0.0);
        rep.metric(tag + "_routed_balanced", balanced ? 1.0 : 0.0,
                   "bool").tol(0.0);
        if (stats.shed + stats.timedOut + stats.failed != 0) {
            std::fprintf(stderr, "FAIL: fleet %d lost requests\n",
                         fleet);
            return 1;
        }
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("modeled fleet scaling (cycle model, round-robin "
                "makespan): %.2f -> %.2f -> %.2f Gop/s (%s)\n\n",
                modeled_gops[0], modeled_gops[1], modeled_gops[2],
                modeled_monotonic ? "monotonic" : "NOT MONOTONIC");
    if (!all_exact || !all_conserved || !modeled_monotonic) {
        std::fprintf(stderr, "FAIL: fleet sweep broke bit-exactness,"
                             " op conservation or modeled scaling\n");
        return 1;
    }

    // Mixed-capability fleet: a decode-capable engine, a
    // prefill-only one (the disaggregation class) and another
    // decode-capable one — Disaggregated routing pins decodes to the
    // KV-cache-warm shards. The bit-exactness contract must hold
    // for the mixed fleet exactly as for the homogeneous one.
    {
        SchedulerConfig cfg = scfg;
        cfg.routing = RoutingPolicy::Disaggregated;
        cfg.startPaused = true; // deterministic placement
        for (int i = 0; i < 3; ++i) {
            EngineBackendConfig e;
            e.engine = cfg.engine;
            e.caps.supportsDecode = i != 1; // dedicated prefill shard
            e.name = (i == 1 ? "prefill" : "engine") + std::to_string(i);
            cfg.backends.push_back(std::make_shared<EngineBackend>(e));
        }

        Scheduler sched(cfg);
        std::vector<std::future<RequestResult>> futs;
        for (const Request &r : trace)
            futs.push_back(sched.submit(r));
        sched.drain();
        bool exact = true, disagg_ok = true;
        int completed = 0;
        for (auto &f : futs) {
            const RequestResult r = f.get();
            completed += r.outcome == Outcome::Completed ? 1 : 0;
            const EngineResult &ref = seq[r.id];
            bool req_ok = r.outcome == Outcome::Completed &&
                          r.engine.totalOps().total() ==
                              ref.totalOps().total() &&
                          r.engine.heads.size() == ref.heads.size();
            for (std::size_t h = 0;
                 req_ok && h < ref.heads.size(); ++h)
                req_ok = r.engine.heads[h].result.output ==
                         ref.heads[h].result.output;
            exact = exact && req_ok;
            // Shard 1 is prefill-only: no decode may land there.
            if (r.kind == RequestKind::Decode)
                disagg_ok = disagg_ok && r.backend != 1;
        }
        std::printf("mixed-capability fleet (decode + prefill-only + "
                    "decode, disaggregated): %d/%d completed, %s, "
                    "decode placement %s\n",
                    completed, n,
                    exact ? "bit-exact" : "MISMATCH",
                    disagg_ok ? "respected" : "VIOLATED");
        rep.metric("hetero_completed",
                   static_cast<double>(completed), "count").tol(0.0);
        rep.metric("hetero_bitexact", exact ? 1.0 : 0.0, "bool")
            .tol(0.0);
        rep.metric("hetero_disagg_respected", disagg_ok ? 1.0 : 0.0,
                   "bool").tol(0.0);
        if (!exact || !disagg_ok)
            return 1;
    }

    // What-if pricing: the same trace priced end-to-end on the
    // baselines/ GPU and TPU roofline models in SOFA-software mode at
    // the engine's keep fraction (serial modeled seconds).
    // Deterministic in the seed — golden-gated.
    {
        const GpuModel gpu;
        const TpuModel tpu;
        const double keep = scfg.engine.pipeline.topkFrac;
        double gpu_s = 0.0, tpu_s = 0.0;
        for (double s : modeledSecondsPerRequest(
                 works, [&](const AttentionShape &sh) {
                     return gpu.run(sh, GpuMode::SofaSoft, keep).timeNs;
                 }))
            gpu_s += s;
        for (double s : modeledSecondsPerRequest(
                 works, [&](const AttentionShape &sh) {
                     return tpu.run(sh, GpuMode::SofaSoft, keep).timeNs;
                 }))
            tpu_s += s;
        std::printf("what-if roofline pricing: %s %.2f modeled "
                    "Gop/s, %s %.2f modeled Gop/s\n",
                    gpu.config().name.c_str(), total_ops / gpu_s / 1e9,
                    tpu.config().name.c_str(), total_ops / tpu_s / 1e9);
        rep.metric("whatif_gpu_gops", total_ops / gpu_s / 1e9,
                   "gops").tol(1e-4);
        rep.metric("whatif_tpu_gops", total_ops / tpu_s / 1e9,
                   "gops").tol(1e-4);
    }

    return 0;
}

} // namespace

SOFA_BENCH_MAIN("backends", run)
