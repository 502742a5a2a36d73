/**
 * Fault-tolerance suite for the serving scheduler, driven entirely
 * by deterministic common/faultplan injection: transient/permanent
 * failure retry paths, deadline timeouts with cooperative
 * cancellation, graceful degradation, and outcome-count determinism
 * across thread counts. Runs under the `faults` CTest label (ASan
 * and TSan in CI); EnvFaultPlanReplay prints the OUTCOMES: line the
 * CI determinism smoke test greps.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.h"
#include "serve/scheduler.h"

namespace sofa {
namespace serve {
namespace {

/** Tiny prefill request spec (fast enough for many engine runs). */
ModelWorkloadSpec
prefillSpec(std::uint64_t salt = 0)
{
    ModelWorkloadSpec spec;
    spec.batch = 1;
    spec.heads = 2;
    spec.seq = 64;
    spec.queries = 8;
    spec.headDim = 16;
    spec.tokenDim = 24;
    spec.seed = 0x5E4D0000ull + salt;
    return spec;
}

/** Tiny KV-cache decode step spec. */
ModelWorkloadSpec
decodeSpec(std::uint64_t salt = 0)
{
    ModelWorkloadSpec spec = prefillSpec(salt);
    spec.pastLen = 60;
    spec.newTokens = 4;
    return spec;
}

/** Alternating prefill/decode trace with decorrelated seeds. */
std::vector<Request>
mixedMiniTrace(int n)
{
    std::vector<Request> trace;
    for (int i = 0; i < n; ++i) {
        Request r;
        r.id = static_cast<std::uint64_t>(i);
        const std::uint64_t salt = static_cast<std::uint64_t>(i);
        r.work = i % 2 == 0 ? prefillSpec(salt) : decodeSpec(salt);
        trace.push_back(r);
    }
    return trace;
}

/** A fault-suite scheduler config: hermetic (no env plan), tiny
 * backoffs so retry paths run fast, paused for deterministic batch
 * composition. */
SchedulerConfig
faultConfig(const std::string &plan)
{
    SchedulerConfig cfg;
    cfg.startPaused = true;
    cfg.headBudget = 8; // 4 two-head requests per merged run
    cfg.faultsFromEnv = false;
    cfg.faults = FaultPlan::parse(plan);
    cfg.retry.baseSeconds = 1e-6; // keep retry sleeps negligible
    cfg.retry.maxSeconds = 1e-4;
    return cfg;
}

/** Submit the whole trace to a paused scheduler, then drain. */
std::vector<RequestResult>
runPaused(Scheduler &sched, const std::vector<Request> &trace)
{
    std::vector<std::future<RequestResult>> futs;
    futs.reserve(trace.size());
    for (const Request &r : trace)
        futs.push_back(sched.submit(r));
    sched.drain();
    std::vector<RequestResult> results;
    results.reserve(futs.size());
    for (auto &f : futs)
        results.push_back(f.get());
    return results;
}

/** Every numerical field of two per-head results must agree. */
void
expectSameResult(const PipelineResult &a, const PipelineResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.selections, b.selections);
    EXPECT_EQ(a.predictionOps.total(), b.predictionOps.total());
    EXPECT_EQ(a.sortOps.total(), b.sortOps.total());
    EXPECT_EQ(a.formalOps.total(), b.formalOps.total());
    EXPECT_EQ(a.keysGenerated, b.keysGenerated);
    EXPECT_DOUBLE_EQ(a.massRecall, b.massRecall);
}

/** A scheduler result vs a standalone Engine::run of @p ecfg. */
void
expectMatchesStandalone(const RequestResult &r, const Request &req,
                        const EngineConfig &ecfg)
{
    const EngineResult ref =
        runEngine(generateModelWorkload(req.work), ecfg);
    ASSERT_EQ(r.engine.heads.size(), ref.heads.size());
    for (std::size_t h = 0; h < ref.heads.size(); ++h)
        expectSameResult(r.engine.heads[h].result,
                         ref.heads[h].result);
    EXPECT_EQ(r.engine.totalOps().total(), ref.totalOps().total());
    EXPECT_EQ(r.engine.keysGenerated, ref.keysGenerated);
    EXPECT_DOUBLE_EQ(r.engine.meanMassRecall, ref.meanMassRecall);
}

/** The deterministic outcome fingerprint of one scheduler run. */
struct OutcomeCounts
{
    std::int64_t completed = 0;
    std::int64_t degraded = 0;
    std::int64_t shed = 0;
    std::int64_t timedOut = 0;
    std::int64_t failed = 0;
    std::int64_t retried = 0;

    bool
    operator==(const OutcomeCounts &o) const
    {
        return completed == o.completed && degraded == o.degraded &&
               shed == o.shed && timedOut == o.timedOut &&
               failed == o.failed && retried == o.retried;
    }
};

OutcomeCounts
countsOf(const SchedulerStats &st)
{
    OutcomeCounts c;
    c.completed = st.completed;
    c.degraded = st.degraded;
    c.shed = st.shed;
    c.timedOut = st.timedOut;
    c.failed = st.failed;
    c.retried = st.retried;
    return c;
}

std::string
outcomesLine(const OutcomeCounts &c)
{
    return "OUTCOMES: completed=" + std::to_string(c.completed) +
           " degraded=" + std::to_string(c.degraded) +
           " shed=" + std::to_string(c.shed) +
           " timedout=" + std::to_string(c.timedOut) +
           " failed=" + std::to_string(c.failed) +
           " retried=" + std::to_string(c.retried);
}

TEST(FaultsDeath, PlanNamingNoEngineStageIsRejected)
{
    // "sads" is not a stage (sads_topk is): the grammar accepts the
    // rule, but it could never fire, so the scheduler refuses it
    // rather than silently inject nothing.
    const char *typo = "fail:stage=sads";
    EXPECT_THROW(Scheduler{faultConfig(typo)}, std::invalid_argument);
    EXPECT_NO_THROW(Scheduler{faultConfig("fail:stage=sads_topk")});
    // Through the environment it is fatal, like a grammar error.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    EXPECT_EXIT(
        {
            setenv("SOFA_FAULTS", typo, 1);
            Scheduler sched{SchedulerConfig{}};
        },
        ::testing::ExitedWithCode(1), "SOFA_FAULTS: .*'sads'");
}

TEST(Faults, TransientFailureRetriesThenCompletes)
{
    // Request 1 fails its first two attempts (the merged run and
    // one solo retry), then succeeds; its batch neighbour re-runs
    // solo once after the aborted merged run.
    const SchedulerConfig cfg =
        faultConfig("fail:req=1:stage=sads_topk:attempt<2");
    Scheduler sched(cfg);
    const auto results = runPaused(sched, mixedMiniTrace(2));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].outcome, Outcome::Completed);
    EXPECT_EQ(results[0].attempts, 2); // merged abort + solo success
    EXPECT_EQ(results[1].outcome, Outcome::Completed);
    EXPECT_EQ(results[1].attempts, 3); // two failures + success
    // Recovered results stay bit-exact vs standalone runs.
    const auto trace = mixedMiniTrace(2);
    expectMatchesStandalone(results[0], trace[0], cfg.engine);
    expectMatchesStandalone(results[1], trace[1], cfg.engine);
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.completed, 2);
    EXPECT_EQ(st.failed, 0);
    EXPECT_EQ(st.retried, 3); // req0: 1, req1: 2
}

TEST(Faults, PermanentFailureResolvesFailedAndAccounted)
{
    // Regression for the old catch-all failure path: a failing run
    // must resolve the future with Outcome::Failed (not an
    // exception) and must show up in SchedulerStats.
    const SchedulerConfig cfg =
        faultConfig("fail:req=0:stage=sufa_attention");
    Scheduler sched(cfg);
    const auto results = runPaused(sched, mixedMiniTrace(1));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, Outcome::Failed);
    EXPECT_EQ(results[0].attempts, cfg.retry.maxAttempts);
    EXPECT_NE(results[0].error.find("injected fault"),
              std::string::npos);
    EXPECT_TRUE(results[0].engine.heads.empty());
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.failed, 1);
    EXPECT_EQ(st.completed, 0);
    EXPECT_EQ(st.retried, cfg.retry.maxAttempts - 1);
}

TEST(Faults, FailureDoesNotPoisonBatchNeighbours)
{
    // Request 2 fails permanently mid-batch; its three co-scheduled
    // neighbours must still complete, bit-exact.
    const SchedulerConfig cfg =
        faultConfig("fail:req=2:stage=kv_generate");
    Scheduler sched(cfg);
    const auto trace = mixedMiniTrace(4);
    const auto results = runPaused(sched, trace);
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 2) {
            EXPECT_EQ(results[i].outcome, Outcome::Failed);
            continue;
        }
        EXPECT_EQ(results[i].outcome, Outcome::Completed);
        expectMatchesStandalone(results[i], trace[i], cfg.engine);
    }
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.completed, 3);
    EXPECT_EQ(st.failed, 1);
}

TEST(Faults, InjectedSlowdownDeadlineTimesOut)
{
    // A 60 ms injected slowdown against a 5 ms deadline: the
    // request must resolve TimedOut with negative slack, and the
    // lane must stay usable for later requests.
    const SchedulerConfig cfg =
        faultConfig("slow:req=0:stage=dlzs_predict:ms=60");
    Scheduler sched(cfg);
    std::vector<Request> trace = mixedMiniTrace(2);
    trace[0].deadlineSeconds = 5e-3;
    const auto results = runPaused(sched, trace);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].outcome, Outcome::TimedOut);
    EXPECT_LT(results[0].deadlineSlackSeconds, 0.0);
    EXPECT_LE(results[0].attempts, 1);
    EXPECT_TRUE(results[0].engine.heads.empty());
    // The co-scheduled neighbour is unaffected by the cancellation.
    EXPECT_EQ(results[1].outcome, Outcome::Completed);
    expectMatchesStandalone(results[1], trace[1], cfg.engine);
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.timedOut, 1);
    EXPECT_EQ(st.completed, 1);
}

TEST(Faults, PreDispatchDeadlineTimeout)
{
    // The deadline expires while the request is still queued
    // (paused scheduler): it must resolve TimedOut without
    // consuming a single engine run.
    SchedulerConfig cfg = faultConfig("");
    Scheduler sched(cfg);
    std::vector<Request> trace = mixedMiniTrace(1);
    trace[0].deadlineSeconds = 1e-3;
    std::future<RequestResult> fut = sched.submit(trace[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sched.drain();
    const RequestResult r = fut.get();
    EXPECT_EQ(r.outcome, Outcome::TimedOut);
    EXPECT_EQ(r.attempts, 0);
    EXPECT_LT(r.deadlineSlackSeconds, 0.0);
    EXPECT_EQ(sched.stats().timedOut, 1);
    EXPECT_EQ(sched.stats().headTasks, 0);
}

TEST(Faults, NoDeadlineByDefaultEvenWhenQueuedLong)
{
    // deadlineSeconds < 0 opts out even when the scheduler has a
    // default deadline configured.
    SchedulerConfig cfg = faultConfig("");
    cfg.defaultDeadlineSeconds = 1e-3;
    Scheduler sched(cfg);
    std::vector<Request> trace = mixedMiniTrace(1);
    trace[0].deadlineSeconds = -1.0;
    std::future<RequestResult> fut = sched.submit(trace[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sched.drain();
    const RequestResult r = fut.get();
    EXPECT_EQ(r.outcome, Outcome::Completed);
    EXPECT_TRUE(std::isinf(r.deadlineSlackSeconds));
}

TEST(Faults, DegradedUnderQueueDelay)
{
    // Every request waits past the (tiny) overload threshold, so
    // all of them run on the degraded engine and are tagged
    // Degraded — bit-exact vs a standalone run of the degraded
    // config, with the quality delta observable.
    SchedulerConfig cfg = faultConfig("");
    cfg.degradeAfterSeconds = 1e-9;
    Scheduler sched(cfg);
    const auto trace = mixedMiniTrace(4);
    const auto results = runPaused(sched, trace);
    const EngineConfig dcfg = degradedEngineConfig(cfg);
    ASSERT_LT(dcfg.pipeline.topkFrac,
              cfg.engine.pipeline.topkFrac);
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(results[i].outcome, Outcome::Degraded) << i;
        EXPECT_DOUBLE_EQ(results[i].degradeKeepFrac,
                         dcfg.pipeline.topkFrac /
                             cfg.engine.pipeline.topkFrac);
        expectMatchesStandalone(results[i], trace[i], dcfg);
        // The quality delta is recorded: the degraded run keeps
        // fewer keys than the full-config run would.
        const EngineResult full =
            runEngine(generateModelWorkload(trace[i].work),
                      cfg.engine);
        EXPECT_LT(results[i].engine.keysGenerated +
                      results[i].engine.keysCached,
                  full.keysGenerated + full.keysCached);
    }
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.degraded, 4);
    EXPECT_EQ(st.completed, 0);
    EXPECT_EQ(st.failed, 0);
}

TEST(Faults, SuccessfulChunkRunsSpendNoRetryBudget)
{
    // Four 2-row chunks: runs 0-2 bank their rows, run 3 fails. The
    // three successful chunk runs are engine attempts (the fault
    // plan indexes them) but not failures, so the prefill still gets
    // its retries and recovers by rerunning whole, solo.
    SchedulerConfig cfg =
        faultConfig("fail:req=0:stage=sufa_attention:attempt=3");
    cfg.prefillChunkRows = 2;
    Scheduler sched(cfg);
    const auto trace = mixedMiniTrace(1);
    const auto results = runPaused(sched, trace);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, Outcome::Completed);
    EXPECT_EQ(results[0].attempts, 5); // 4 chunk runs + 1 solo rerun
    EXPECT_EQ(results[0].chunks, 1);
    expectMatchesStandalone(results[0], trace[0], cfg.engine);
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.retried, 1);
    EXPECT_EQ(st.chunkRuns, 3);
    EXPECT_EQ(st.failed, 0);
}

TEST(Faults, FailedChunkRerunsPrefillWholeAndSolo)
{
    // The second of two chunk runs fails: the banked first chunk is
    // discarded and the prefill reruns unchunked, bit-exact vs the
    // standalone whole run.
    SchedulerConfig cfg =
        faultConfig("fail:req=0:stage=sads_topk:attempt=1");
    cfg.prefillChunkRows = 4;
    Scheduler sched(cfg);
    const auto trace = mixedMiniTrace(1);
    const auto results = runPaused(sched, trace);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, Outcome::Completed);
    EXPECT_EQ(results[0].attempts, 3); // 2 chunk runs + 1 solo rerun
    expectMatchesStandalone(results[0], trace[0], cfg.engine);
    EXPECT_EQ(sched.stats().retried, 1);
}

TEST(Faults, DegradedRunRetriesAtTheDegradedKeepFactor)
{
    // The degraded solo run fails once; its retry still runs on the
    // degraded engine and resolves Degraded, bit-exact vs a
    // standalone run of degradedEngineConfig.
    SchedulerConfig cfg =
        faultConfig("fail:req=0:stage=sads_topk:attempt=0");
    cfg.degradeAfterSeconds = 1e-9;
    Scheduler sched(cfg);
    const auto trace = mixedMiniTrace(1);
    const auto results = runPaused(sched, trace);
    ASSERT_EQ(results.size(), 1u);
    const EngineConfig dcfg = degradedEngineConfig(cfg);
    EXPECT_EQ(results[0].outcome, Outcome::Degraded);
    EXPECT_EQ(results[0].attempts, 2);
    EXPECT_DOUBLE_EQ(results[0].degradeKeepFrac,
                     dcfg.pipeline.topkFrac /
                         cfg.engine.pipeline.topkFrac);
    expectMatchesStandalone(results[0], trace[0], dcfg);
    EXPECT_EQ(sched.stats().retried, 1);
}

TEST(Faults, ChunkDeadlineReleasesEveryPage)
{
    // The second chunk's DLZS stage stalls 60 ms against a 30 ms
    // deadline: the request times out with its banked rows dropped,
    // and the KV pool ends with nothing pinned and no page lost.
    SchedulerConfig cfg =
        faultConfig("slow:req=0:stage=dlzs_predict:attempt=1:ms=60");
    cfg.prefillChunkRows = 4;
    cfg.kvPool.pages = 64;
    Scheduler sched(cfg);
    std::vector<Request> trace = mixedMiniTrace(1);
    trace[0].deadlineSeconds = 30e-3;
    const auto results = runPaused(sched, trace);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, Outcome::TimedOut);
    EXPECT_TRUE(results[0].engine.heads.empty());
    const KvPool &pool = sched.kvPool();
    EXPECT_EQ(pool.pinnedPages(), 0);
    EXPECT_EQ(pool.freePages() + pool.residentPages(),
              pool.capacityPages());
}

/** The standard mixed fault plan of the determinism tests: one
 * transient failure, one permanent failure, one slowdown. */
const char *const kMixedPlan =
    "fail:req=1:stage=sads_topk:attempt<2;"
    "fail:req=3:stage=sufa_attention;"
    "slow:req=5:stage=dlzs_predict:ms=40";

std::vector<Request>
mixedFaultTrace()
{
    std::vector<Request> trace = mixedMiniTrace(8);
    trace[5].deadlineSeconds = 5e-3; // loses against the 40 ms slow
    return trace;
}

TEST(Faults, OutcomeCountsInvariantAcrossThreadCounts)
{
    // The acceptance bar: a seeded fault plan replays to
    // bit-identical outcome counts at any thread count, and the
    // surviving Completed results are bit-identical too.
    const auto trace = mixedFaultTrace();
    const SchedulerConfig cfg = faultConfig(kMixedPlan);

    OutcomeCounts ref_counts;
    std::vector<RequestResult> ref;
    {
        ThreadPool::ScopedSerial guard;
        Scheduler sched(cfg);
        ref = runPaused(sched, trace);
        ref_counts = countsOf(sched.stats());
    }
    EXPECT_EQ(ref_counts.completed, 6);
    EXPECT_EQ(ref_counts.failed, 1);
    EXPECT_EQ(ref_counts.timedOut, 1);
    EXPECT_EQ(ref_counts.retried, 6);
    EXPECT_EQ(ref_counts.degraded, 0);
    EXPECT_EQ(ref_counts.shed, 0);

    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        SchedulerConfig tcfg = cfg;
        tcfg.engine.pool = &pool;
        Scheduler sched(tcfg);
        const auto results = runPaused(sched, trace);
        EXPECT_TRUE(countsOf(sched.stats()) == ref_counts)
            << "threads=" << threads;
        ASSERT_EQ(results.size(), ref.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].outcome, ref[i].outcome)
                << "threads=" << threads << " req=" << i;
            if (results[i].outcome != Outcome::Completed)
                continue;
            ASSERT_EQ(results[i].engine.heads.size(),
                      ref[i].engine.heads.size());
            for (std::size_t h = 0;
                 h < results[i].engine.heads.size(); ++h)
                expectSameResult(results[i].engine.heads[h].result,
                                 ref[i].engine.heads[h].result);
        }
    }
}

TEST(Faults, EnvFaultPlanReplay)
{
    // SOFA_FAULTS wiring + the CI determinism smoke test: the same
    // env plan produces identical outcome counts on back-to-back
    // runs. The OUTCOMES: line is what .github/workflows/ci.yml
    // greps and compares across two process invocations.
    const char *plan =
        "fail:req=1:stage=sads_topk:attempt<2;"
        "fail:req=3:stage=sufa_attention";
    setenv("SOFA_FAULTS", plan, 1);
    const auto trace = mixedMiniTrace(6);
    OutcomeCounts first;
    for (int round = 0; round < 2; ++round) {
        SchedulerConfig cfg;
        cfg.startPaused = true;
        cfg.headBudget = 8;
        cfg.retry.baseSeconds = 1e-6;
        // cfg.faults left empty and faultsFromEnv true: the plan
        // must arrive through the environment.
        Scheduler sched(cfg);
        runPaused(sched, trace);
        const OutcomeCounts c = countsOf(sched.stats());
        if (round == 0)
            first = c;
        else
            EXPECT_TRUE(c == first) << "env fault plan must replay "
                                       "to identical outcomes";
    }
    unsetenv("SOFA_FAULTS");
    EXPECT_EQ(first.completed, 5);
    EXPECT_EQ(first.failed, 1);
    EXPECT_EQ(first.retried, 6);
    std::printf("%s\n", outcomesLine(first).c_str());
    std::fflush(stdout);
}

TEST(Faults, BackoffIsDeterministicBoundedAndJittered)
{
    RetryPolicy p;
    p.baseSeconds = 1e-3;
    p.maxSeconds = 8e-3;
    p.jitterFrac = 0.25;
    p.seed = 42;
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(p, 7, 0), 0.0);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(p, 7, -1), 0.0);
    for (int attempt = 1; attempt <= 6; ++attempt) {
        const double b = retryBackoffSeconds(p, 7, attempt);
        // Pure function: replays identically.
        EXPECT_DOUBLE_EQ(b, retryBackoffSeconds(p, 7, attempt));
        // Exponential growth capped at maxSeconds, within jitter.
        const double nominal = std::min(
            p.maxSeconds, p.baseSeconds * std::pow(2.0, attempt - 1));
        EXPECT_GE(b, nominal * (1.0 - p.jitterFrac));
        EXPECT_LE(b, nominal * (1.0 + p.jitterFrac));
    }
    // Jitter decorrelates requests (not all equal).
    const double a = retryBackoffSeconds(p, 1, 1);
    const double c = retryBackoffSeconds(p, 2, 1);
    const double d = retryBackoffSeconds(p, 3, 1);
    EXPECT_TRUE(a != c || c != d);
}

} // namespace
} // namespace serve
} // namespace sofa
