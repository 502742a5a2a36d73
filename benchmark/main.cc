/**
 * @file
 * The serving benchmark binary: runs one workload for one seed and
 * prints one JSON object — run metadata, metrics by name with unit,
 * and the correctness verdict — on stdout. benchmark/run.py builds
 * it, runs it and prints the result; README.md defines the workloads
 * and metrics.
 *
 *   sofa_benchmark --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--trace-out PATH]
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 runs the same
 * workload and seed with every backend wrapped in a TracingBackend
 * and adds the layer replay, giving the per-layer metrics. Either way
 * a correctness gate re-runs sampled requests standalone and checks
 * outcome conservation afterwards, untimed; any mismatch makes the
 * exit status 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/jsonwriter.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "core/engine.h"
#include "driver.h"
#include "model/model_workload.h"
#include "replay.h"
#include "serve/scheduler.h"
#include "tracing.h"
#include "workloads.h"

#ifndef SOFA_BENCH_BUILD
#define SOFA_BENCH_BUILD "unknown"
#endif

namespace sofa {
namespace servingbench {
namespace {

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 5;
/** The correctness gate re-runs every request whose id is a
 * multiple of this (chunked prefills excepted). */
constexpr std::uint64_t kGateStride = 25;
/** Closed-loop requests the replay sample is spread over. */
constexpr std::uint64_t kClosedReplaySpan = 64;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

const char *const kUsage =
    "usage: sofa_benchmark --workload NAME [--seed N] [--seconds S]\n"
    "                      [--trace 0|1] [--trace-out PATH]\n";

/** Parse argv into @p o; an error message, or empty on success. */
std::string
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return "missing value for " + flag;
        const std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                o.workload = v;
            } else if (flag == "--seed") {
                if (v.empty() || v[0] == '-')
                    return "--seed must be a non-negative integer";
                o.seed = std::stoull(v, &used, 0);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(v, &used);
                if (!(o.seconds > 0.0 && o.seconds <= 600.0))
                    return "--seconds must be in (0, 600]";
            } else if (flag == "--trace") {
                if (v != "0" && v != "1")
                    return "--trace takes 0 or 1";
                o.trace = v == "1";
            } else if (flag == "--trace-out") {
                o.traceOut = v;
            } else {
                return "unknown flag " + flag;
            }
            if (used != 0 && used != v.size())
                return "malformed value for " + flag + ": " + v;
        } catch (const std::exception &) {
            return "malformed value for " + flag + ": " + v;
        }
    }
    if (findWorkload(o.workload) == nullptr)
        return "unknown or missing --workload '" + o.workload + "'";
    if (!o.traceOut.empty() && !o.trace)
        return "--trace-out needs --trace 1";
    return std::string();
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

bool
completed(const Sample &s)
{
    return s.result.outcome == serve::Outcome::Completed;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * One set-up: construct the scheduler (and its backends) and resolve
 * the warm-up requests; @p seconds receives the time both took.
 */
std::unique_ptr<serve::Scheduler>
setUp(const Workload &w, TraceLog *log, double *seconds)
{
    const double t0 = nowSeconds();
    serve::SchedulerConfig cfg = schedulerConfig(w);
    if (log != nullptr)
        traceBackends(cfg, *log);
    auto sched = std::make_unique<serve::Scheduler>(std::move(cfg));
    std::vector<std::future<serve::RequestResult>> futs;
    for (int i = 0; i < kWarmupRequests; ++i)
        futs.push_back(sched->submit(warmupRequest(w, i)));
    for (auto &f : futs)
        if (f.get().outcome != serve::Outcome::Completed)
            throw std::runtime_error("a warm-up request did not complete");
    *seconds = nowSeconds() - t0;
    return sched;
}

// ---------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------

bool
sameCounter(const OpCounter &a, const OpCounter &b)
{
    return a.adds() == b.adds() && a.cmps() == b.cmps() &&
           a.shifts() == b.shifts() && a.muls() == b.muls() &&
           a.divs() == b.divs() && a.exps() == b.exps();
}

bool
sameBits(const MatF &a, const MatF &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(), a.bytes()) == 0;
}

/** What differs between @p got and @p want; empty when they are
 * bit-identical in outputs, selections, op counts and key counts. */
std::string
compareResults(const EngineResult &got, const EngineResult &want)
{
    if (got.heads.size() != want.heads.size())
        return "head count";
    for (std::size_t i = 0; i < got.heads.size(); ++i) {
        const HeadResult &g = got.heads[i];
        const HeadResult &x = want.heads[i];
        const std::string head = " of head " + std::to_string(i);
        if (!sameBits(g.result.output, x.result.output))
            return "output" + head;
        if (g.result.selections != x.result.selections)
            return "selections" + head;
        if (!sameCounter(g.result.predictionOps, x.result.predictionOps) ||
            !sameCounter(g.result.sortOps, x.result.sortOps) ||
            !sameCounter(g.result.formalOps, x.result.formalOps))
            return "op counts" + head;
        if (g.result.keysGenerated != x.result.keysGenerated ||
            g.keysCached != x.keysCached)
            return "key counts" + head;
    }
    if (!sameCounter(got.totalOps(), want.totalOps()))
        return "op totals";
    return std::string();
}

struct GateReport
{
    int checked = 0;
    std::vector<std::string> errors;
};

/**
 * Re-run every kept, completed request standalone with
 * Engine::run(generateModelWorkload(spec)) — with pastLen 0 when its
 * KV reservation had been evicted — and require the served result to
 * match bit for bit; then check that every submitted request is
 * accounted for by exactly one outcome.
 */
GateReport
runGate(const std::vector<Sample> &samples, const EngineConfig &cfg,
        const serve::SchedulerStats &stats)
{
    GateReport g;
    const Engine engine(cfg);
    for (const Sample &s : samples) {
        if (!completed(s) || s.result.engine.heads.empty())
            continue;
        const ModelWorkload mw = generateModelWorkload(s.request.work);
        const std::string diff = compareResults(
            s.result.engine, engine.run(headTasks(mw, s.result.kvCold)));
        ++g.checked;
        if (!diff.empty())
            g.errors.push_back("request " +
                               std::to_string(s.request.id) +
                               ": served result differs from a "
                               "standalone run (" + diff + ")");
    }
    const std::int64_t accounted = stats.completed + stats.shed +
                                   stats.timedOut + stats.failed +
                                   stats.degraded;
    if (stats.submitted != accounted)
        g.errors.push_back(
            "outcome conservation: submitted " +
            std::to_string(stats.submitted) + " != " +
            std::to_string(accounted) +
            " completed + shed + timed out + failed + degraded");
    return g;
}

// ---------------------------------------------------------------
// End-to-end metrics (untraced run)
// ---------------------------------------------------------------

/** Open loop: from when the request was due; closed loop: from when
 * it was sent. */
double
latencyOf(const Workload &w, const Sample &s)
{
    return w.openLoop() ? s.resolved() - s.due : s.result.totalSeconds;
}

/** Share of @p set that completed within its kind's limit. */
double
attainment(const Workload &w, const std::vector<const Sample *> &set)
{
    std::size_t within = 0;
    for (const Sample *s : set)
        if (completed(*s) &&
            latencyOf(w, *s) <= latencyLimitSeconds(s->request.kind()))
            ++within;
    return ratio(static_cast<double>(within),
                 static_cast<double>(set.size()));
}

/** The samples the metrics cover: an open loop's gated phase, a
 * closed loop's whole run. */
std::vector<const Sample *>
gatedSamples(const Workload &w, const Run &run)
{
    std::vector<const Sample *> gated;
    for (const Sample &s : run.samples)
        if (!w.openLoop() || s.phase == w.gatedPhase)
            gated.push_back(&s);
    return gated;
}

void
endToEndMetrics(const Workload &w, const Options &opt, const Run &run,
                double setup_s, double rss_mb, Metrics &m)
{
    const std::vector<const Sample *> gated = gatedSamples(w, run);
    std::vector<double> all, prefill, decode;
    double rows = 0.0;
    double first = std::numeric_limits<double>::infinity();
    double last = -first;
    for (const Sample *s : gated) {
        first = std::min(first, s->due);
        if (!completed(*s))
            continue;
        const double lat = latencyOf(w, *s);
        all.push_back(lat);
        (s->request.kind() == serve::RequestKind::Prefill ? prefill
                                                          : decode)
            .push_back(lat);
        rows += s->request.work.queryRows();
        last = std::max(last, s->resolved());
    }
    if (all.empty())
        throw std::runtime_error("no measured request completed");

    m.push_back({"setup_s", setup_s, "s"});
    m.push_back({"tokens_per_s", rows / (last - first), "tokens/s"});
    m.push_back({"latency_p50_s", percentile(all, 0.50), "s"});

    // Reported for reading, not gated: too noisy run to run (queueing
    // amplifies host-speed swings in the p95 of the open loops, and
    // peak RSS follows allocator-arena timing) or not defined for
    // every workload.
    m.push_back({"latency_p95_s", percentile(all, 0.95), "s"});
    m.push_back({"peak_rss_mb", rss_mb, "MB"});
    m.push_back({"slo_attainment", attainment(w, gated), "fraction"});
    m.push_back({"requests", static_cast<double>(gated.size()), "count"});
    m.push_back({"error_rate",
        1.0 - ratio(static_cast<double>(all.size()),
                    static_cast<double>(gated.size())),
        "fraction"});
    if (!prefill.empty()) {
        m.push_back({"prefill_latency_p50_s",
            percentile(prefill, 0.50), "s"});
        m.push_back({"prefill_latency_p95_s",
            percentile(prefill, 0.95), "s"});
    }
    if (!decode.empty()) {
        m.push_back({"decode_latency_p50_s",
            percentile(decode, 0.50), "s"});
        m.push_back({"decode_latency_p95_s",
            percentile(decode, 0.95), "s"});
        // p99 needs at least ten samples beyond it.
        if (decode.size() >= 1000)
            m.push_back({"decode_latency_p99_s",
                percentile(decode, 0.99), "s"});
    }
    if (!w.openLoop())
        return;

    // slo_max_rate_rps: the highest phase rate whose requests meet
    // the limits at >= 99 % and have all resolved within 1 s of the
    // phase's end (no growing backlog).
    const std::vector<double> ends = phaseEnds(w, opt.seconds);
    double max_rate = 0.0;
    for (std::size_t p = 0; p < w.phases.size(); ++p) {
        std::vector<const Sample *> set;
        double drained = 0.0;
        for (const Sample &s : run.samples) {
            if (s.phase != static_cast<int>(p))
                continue;
            set.push_back(&s);
            drained = std::max(drained, s.resolved() - run.start);
        }
        const double att = attainment(w, set);
        const std::string tag =
            "phase" + std::to_string(p) + "_" +
            std::to_string(static_cast<int>(w.phases[p].rate)) + "rps";
        m.push_back({tag + ".slo_attainment", att, "fraction"});
        if (att >= 0.99 && drained <= ends[p] + 1.0)
            max_rate = std::max(max_rate, w.phases[p].rate);
    }
    m.push_back({"slo_max_rate_rps", max_rate, "req/s"});
}

// ---------------------------------------------------------------
// Per-layer metrics (traced run)
// ---------------------------------------------------------------

/** Total length of the union of [start, end) intervals. */
double
unionSeconds(std::vector<std::pair<double, double>> spans)
{
    std::sort(spans.begin(), spans.end());
    double total = 0.0, cur_start = 0.0, cur_end = -1.0;
    for (const auto &sp : spans) {
        if (sp.first > cur_end) {
            total += std::max(0.0, cur_end - cur_start);
            cur_start = sp.first;
            cur_end = sp.second;
        } else {
            cur_end = std::max(cur_end, sp.second);
        }
    }
    return total + std::max(0.0, cur_end - cur_start);
}

/** The fixed replay sample: kReplayRequests requests spread evenly
 * over the run's request stream. */
std::vector<serve::Request>
replaySample(const Workload &w, const Options &opt, const Run &run)
{
    const std::uint64_t span =
        w.openLoop() ? run.samples.size() : kClosedReplaySpan;
    std::vector<serve::Request> out;
    for (std::uint64_t i = 0; i < kReplayRequests; ++i)
        out.push_back(makeRequest(w, opt.seed, i * span / kReplayRequests));
    return out;
}

/**
 * The traced run's per-layer metrics. Sample-based ones (the latency
 * breakdown, queue waits, driver lag) cover the same gated samples as
 * the end-to-end metrics; counters cover the whole measured run.
 */
void
perLayerMetrics(const Workload &w, const Run &run,
                const std::vector<RunTrace> &runs,
                double commit_seconds, const ReplayResult &rep,
                const serve::SchedulerStats &before,
                const serve::SchedulerStats &after,
                const std::vector<serve::BackendStats> &routed_before,
                const std::vector<serve::BackendStats> &routed_after,
                double gflops_start, double gflops_end, Metrics &m)
{
    // Kernels and thread pool (replay).
    const int one = 0, two = 1, four = 2; // kReplayThreadCounts index
    const double ops = static_cast<double>(
        rep.predictionOps + rep.sortOps + rep.formalOps);
    const double n_rep = rep.requests;
    m.push_back({"tensor.matmulnt_gflops_start",
        gflops_start, "GFLOP/s"});
    m.push_back({"tensor.matmulnt_gflops_end", gflops_end, "GFLOP/s"});
    m.push_back({"core.engine_peak_ratio",
        ratio(ratio(ops, rep.engineSeconds(one)) / 1e9, gflops_start),
        "fraction"});
    m.push_back({"threadpool.scaling_2t",
        ratio(rep.engineSeconds(one), rep.engineSeconds(two)), "x"});
    m.push_back({"threadpool.scaling_4t",
        ratio(rep.engineSeconds(one), rep.engineSeconds(four)), "x"});

    // Workload generation (replay, 4 threads for the engine share).
    m.push_back({"model.generate_ms_per_req",
        1e3 * ratio(rep.generateSeconds, n_rep), "ms"});
    m.push_back({"model.generate_share",
        ratio(rep.generateSeconds,
              rep.generateSeconds + rep.engineSeconds(four)),
        "fraction"});

    // Engine stages as the served requests saw them (traced spans).
    const auto by_request = runsByRequest(runs);
    Breakdown sum;
    double n = 0.0;
    std::vector<double> queue_waits, lags;
    for (const Sample *sp : gatedSamples(w, run)) {
        const Sample &s = *sp;
        lags.push_back(s.sent - s.due);
        const auto it = by_request.find(s.request.id);
        if (!completed(s) || it == by_request.end())
            continue;
        const Breakdown b = breakdown(s, it->second);
        sum.total += b.total;
        sum.queue += b.queue;
        sum.prepare += b.prepare;
        for (int i = 0; i < kStageSpans; ++i)
            sum.stages[i] += b.stages[i];
        sum.resolve += b.resolve;
        sum.unattributed += std::fabs(b.unattributed);
        queue_waits.push_back(s.result.queueSeconds);
        n += 1.0;
    }
    for (int i = 0; i < kStageSpans; ++i) {
        // Every workload runs with computeQuality off, so the quality
        // stage does no work and its metrics could never move.
        if (std::strcmp(kStageMetricNames[i], "quality") == 0)
            continue;
        const std::string name = std::string("core.") + kStageMetricNames[i];
        m.push_back({name + "_ms_per_req",
            1e3 * ratio(sum.stages[i], n), "ms"});
        m.push_back({name + "_share",
            ratio(sum.stages[i], sum.total), "fraction"});
    }

    // Stage throughput at 4 threads and exact work counts (replay).
    const double *st = rep.stageSeconds[four];
    m.push_back({"core.dlzs_gops",
        ratio(static_cast<double>(rep.predictionOps), st[0]) / 1e9,
        "Gop/s"});
    m.push_back({"core.sads_gops",
        ratio(static_cast<double>(rep.sortOps), st[1]) / 1e9, "Gop/s"});
    m.push_back({"core.formal_gops",
        ratio(static_cast<double>(rep.formalOps), st[2] + st[3]) / 1e9,
        "Gop/s"});
    m.push_back({"core.engine_gops",
        ratio(ops, rep.engineSeconds(four)) / 1e9, "Gop/s"});
    m.push_back({"core.ops_per_req", ratio(ops, n_rep), "ops"});
    m.push_back({"core.keys_generated_per_req",
        ratio(static_cast<double>(rep.keysGenerated), n_rep), "keys"});
    m.push_back({"core.keys_cached_per_req",
        ratio(static_cast<double>(rep.keysCached), n_rep), "keys"});

    // Scheduler, queue and KV pool (counter deltas over the run).
    const auto delta = [&](std::int64_t serve::SchedulerStats::*field) {
        return static_cast<double>(after.*field - before.*field);
    };
    const double batches = delta(&serve::SchedulerStats::batches);
    m.push_back({"serve.queue_wait_p50_s",
        percentile(queue_waits, 0.50), "s"});
    m.push_back({"serve.queue_wait_p95_s",
        percentile(queue_waits, 0.95), "s"});
    m.push_back({"serve.queue_depth_max",
        static_cast<double>(after.maxQueueDepth), "count"});
    m.push_back({"serve.requests_per_batch",
        ratio(delta(&serve::SchedulerStats::completed), batches), "count"});
    m.push_back({"serve.heads_per_batch",
        ratio(delta(&serve::SchedulerStats::headTasks), batches), "count"});
    m.push_back({"serve.chunk_runs",
        delta(&serve::SchedulerStats::chunkRuns), "count"});
    m.push_back({"serve.queue_ms_per_req",
        1e3 * ratio(sum.queue, n), "ms"});
    m.push_back({"serve.prepare_ms_per_req",
        1e3 * ratio(sum.prepare, n), "ms"});
    m.push_back({"serve.resolve_ms_per_req",
        1e3 * ratio(sum.resolve, n), "ms"});
    m.push_back({"serve.kv_evictions",
        delta(&serve::SchedulerStats::kvEvictions), "count"});
    m.push_back({"serve.kv_cold_runs",
        delta(&serve::SchedulerStats::kvColdRuns), "count"});

    // Backends: share of the run each had a run in flight, and how
    // many requests were routed to it. b1 exists only on the fleet.
    double window_end = run.start;
    for (const Sample &s : run.samples)
        window_end = std::max(window_end, s.resolved());
    double busy_run = 0.0, run_overhead = commit_seconds;
    for (int b = 0; b < 2; ++b) {
        std::vector<std::pair<double, double>> spans;
        for (const RunTrace &r : runs)
            if (r.backend == b && r.end > 0.0)
                spans.emplace_back(r.start, r.end);
        const std::string idx = ".b" + std::to_string(b);
        m.push_back({"serve.backend_busy_frac" + idx,
            ratio(unionSeconds(spans), window_end - run.start),
            "fraction"});
        const std::size_t i = static_cast<std::size_t>(b);
        const double routed =
            i < routed_after.size()
                ? static_cast<double>(routed_after[i].routed -
                                      routed_before[i].routed)
                : 0.0;
        m.push_back({"serve.backend_routed" + idx, routed, "count"});
    }
    for (const RunTrace &r : runs) {
        if (r.end > 0.0)
            busy_run += r.end - r.start;
        run_overhead += r.overhead;
    }

    // Validity of the run and of the trace itself.
    m.push_back({"driver.lag_p99_s", percentile(lags, 0.99), "s"});
    m.push_back({"driver.lag_max_s", percentile(lags, 1.0), "s"});
    m.push_back({"trace.unattributed_frac",
        ratio(sum.unattributed, sum.total), "fraction"});
    m.push_back({"trace.overhead_frac",
        ratio(run_overhead, busy_run), "fraction"});
}

void
writeMetrics(JsonWriter &j, const Metrics &m)
{
    j.key("metrics").beginObject();
    for (const Metric &x : m)
        j.key(x.name)
            .beginObject()
            .key("value").value(x.value)
            .key("unit").value(x.unit)
            .endObject();
    j.endObject();
}

int
runBenchmark(const Options &opt)
{
    const Workload &w = *findWorkload(opt.workload);
    ThreadPool::setDefaultThreads(kEngineThreads);
    const double gflops_start = kernelGflops();

    TraceLog log;
    std::vector<double> setups;
    std::unique_ptr<serve::Scheduler> sched;
    for (int k = 0; k < (opt.trace ? 1 : kSetupRepeats); ++k) {
        sched.reset();
        double t = 0.0;
        sched = setUp(w, opt.trace ? &log : nullptr, &t);
        setups.push_back(t);
    }
    log.clearRuns();

    const EngineConfig engine_cfg = sched->config().engine;
    const int chunk_rows = sched->config().prefillChunkRows;
    DriverHooks hooks;
    if (opt.trace)
        hooks.beforeSubmit = [&log](const serve::Request &r) {
            log.registerRequest(r);
        };
    hooks.keepEngine = [chunk_rows](const serve::Request &r) {
        return r.id % kGateStride == 0 &&
               !serve::prefillChunks(r, chunk_rows);
    };

    const serve::SchedulerStats before = sched->stats();
    const auto routed_before = sched->backendStats();
    const Run run = w.openLoop()
                        ? runOpenLoop(*sched, w, opt.seed, opt.seconds,
                                      hooks)
                        : runClosedLoop(*sched, w, opt.seed, opt.seconds,
                                        hooks);
    const serve::SchedulerStats after = sched->stats();
    const auto routed_after = sched->backendStats();
    const double rss_mb = peakRssMb();
    const double gflops_end = kernelGflops();
    std::vector<std::string> backend_names;
    for (std::size_t i = 0; i < sched->fleetSize(); ++i)
        backend_names.push_back(sched->backend(i).name());
    sched.reset();

    const GateReport gate = runGate(run.samples, engine_cfg, after);

    Metrics m;
    if (opt.trace) {
        const std::vector<RunTrace> runs = log.runs();
        const ReplayResult rep =
            replayLayers(replaySample(w, opt, run), engine_cfg);
        perLayerMetrics(w, run, runs, log.commitSeconds(), rep, before,
                        after, routed_before, routed_after, gflops_start,
                        gflops_end, m);
        if (!opt.traceOut.empty() &&
            !writeChromeTrace(opt.traceOut, run.samples, runs,
                              backend_names))
            throw std::runtime_error("cannot write " + opt.traceOut);
    } else {
        endToEndMetrics(w, opt, run, percentile(setups, 0.5), rss_mb, m);
    }

    std::int64_t failed = 0;
    for (const Sample &s : run.samples)
        failed += completed(s) ? 0 : 1;

    JsonWriter j;
    j.beginObject()
        .key("workload").value(w.name)
        .key("seed").value(opt.seed)
        .key("seconds").value(opt.seconds)
        .key("trace").value(opt.trace)
        .key("meta").beginObject()
        .key("threads").value(kEngineThreads)
        .key("nproc").value(
            static_cast<int>(std::thread::hardware_concurrency()))
        .key("build").value(SOFA_BENCH_BUILD)
        .key("kernel_gflops_start").value(gflops_start)
        .key("kernel_gflops_end").value(gflops_end)
        .key("setups").value(static_cast<int>(setups.size()))
        .key("gate_checked").value(gate.checked)
        .endObject()
        .key("correct").value(gate.errors.empty())
        .key("attempted")
        .value(static_cast<std::int64_t>(run.samples.size()))
        .key("failed").value(failed);
    writeMetrics(j, m);
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    for (const std::string &e : gate.errors)
        std::fprintf(stderr, "correctness: %s\n", e.c_str());
    return gate.errors.empty() ? 0 : 1;
}

} // namespace
} // namespace servingbench
} // namespace sofa

int
main(int argc, char **argv)
{
    using namespace sofa::servingbench;
    Options opt;
    const std::string err = parseArgs(argc, argv, opt);
    if (!err.empty()) {
        std::fprintf(stderr, "sofa_benchmark: %s\n%s", err.c_str(),
                     kUsage);
        return 2;
    }
    try {
        return runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sofa_benchmark: %s\n", e.what());
        return 1;
    }
}
