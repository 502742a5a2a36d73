/**
 * @file
 * Backend conformance suite: EngineBackend (serve/backend) on a
 * shared pool and on an owned pool must produce per-request results
 * bit-exact vs a sequential Engine::run of the same tasks, reconcile
 * op counters exactly (tol 0) and keep the queue-depth/completion
 * accounting invariants; behind the scheduler, fleets of 1, 2 or 4
 * backends (or none at all) yield identical results and Outcome
 * counts, and a mixed-capability fleet keeps decodes off its
 * prefill-only shard. Also the regression for the
 * ScopedDefaultThreads hazard: backends own explicit pools and never
 * mutate the process-wide default.
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/threadpool.h"
#include "serve/backend.h"
#include "serve/scheduler.h"
#include "testutil.h"

namespace sofa {
namespace serve {
namespace {

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
    spec.seed = 0xBACC0000ull + salt;
    return spec;
}

ModelWorkloadSpec
decodeSpec(std::uint64_t salt = 0)
{
    ModelWorkloadSpec spec = prefillSpec(salt);
    spec.pastLen = 60;
    spec.newTokens = 4;
    return spec;
}

/** The grid of @p mw as explicit HeadTasks (decode keeps its cache
 * claim), exactly as the scheduler submits them. */
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

/** Exact (tol 0) equality of two whole-grid results: outputs,
 * selections, every op-counter family, cache accounting. */
void
expectSameEngineResult(const EngineResult &a, const EngineResult &b)
{
    ASSERT_EQ(a.heads.size(), b.heads.size());
    for (std::size_t h = 0; h < a.heads.size(); ++h) {
        EXPECT_EQ(a.heads[h].batch, b.heads[h].batch);
        EXPECT_EQ(a.heads[h].head, b.heads[h].head);
        EXPECT_EQ(a.heads[h].keysCached, b.heads[h].keysCached);
        expectSameResult(a.heads[h].result, b.heads[h].result);
    }
    EXPECT_EQ(a.predictionOps.total(), b.predictionOps.total());
    EXPECT_EQ(a.sortOps.total(), b.sortOps.total());
    EXPECT_EQ(a.formalOps.total(), b.formalOps.total());
    EXPECT_EQ(a.totalOps().total(), b.totalOps().total());
    EXPECT_EQ(a.keysGenerated, b.keysGenerated);
    EXPECT_EQ(a.keysCached, b.keysCached);
    EXPECT_DOUBLE_EQ(a.meanMassRecall, b.meanMassRecall);
}

/** The two EngineBackend shapes the parameterized suite runs over. */
enum class Kind { EngineShared, EngineOwnedPool };

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::EngineShared:
        return "EngineShared";
      case Kind::EngineOwnedPool:
        return "EngineOwnedPool";
    }
    return "?";
}

std::shared_ptr<Backend>
makeBackend(Kind k, const EngineConfig &ecfg)
{
    EngineBackendConfig c;
    c.engine = ecfg;
    if (k == Kind::EngineOwnedPool)
        c.threads = 2;
    return std::make_shared<EngineBackend>(c);
}

class BackendConformance : public ::testing::TestWithParam<Kind>
{
};

TEST_P(BackendConformance, BitExactVsSequentialEngineRun)
{
    const EngineConfig ecfg;
    auto backend = makeBackend(GetParam(), ecfg);
    const Engine ref(ecfg);
    for (const ModelWorkloadSpec &spec :
         {prefillSpec(1), decodeSpec(2)}) {
        const ModelWorkload mw = generateModelWorkload(spec);
        const std::vector<HeadTask> tasks = gridTasks(mw);
        auto run = backend->begin(tasks);
        ASSERT_GT(run->stageCount(), 0u);
        std::size_t steps = 0;
        while (!run->done()) {
            EXPECT_NE(run->nextStageName(), nullptr);
            run->step();
            ++steps;
        }
        EXPECT_EQ(steps, run->stageCount());
        EXPECT_EQ(run->nextStageName(), nullptr);
        const EngineResult got = run->finish();
        expectSameEngineResult(got, ref.run(tasks));
    }
}

TEST_P(BackendConformance, OpCountersReconcileExactly)
{
    const EngineConfig ecfg;
    auto backend = makeBackend(GetParam(), ecfg);
    const ModelWorkload mw = generateModelWorkload(prefillSpec(3));
    const std::vector<HeadTask> tasks = gridTasks(mw);
    const EngineResult got = backend->begin(tasks)->finish();
    const EngineResult ref = Engine(ecfg).run(tasks);
    // Per-family, not just the total — tolerance is exactly 0.
    EXPECT_EQ(got.predictionOps.total(), ref.predictionOps.total());
    EXPECT_EQ(got.sortOps.total(), ref.sortOps.total());
    EXPECT_EQ(got.formalOps.total(), ref.formalOps.total());
    EXPECT_EQ(got.totalOps().total(), ref.totalOps().total());
}

TEST_P(BackendConformance, QueueDepthAndCompletionAccounting)
{
    auto backend = makeBackend(GetParam(), EngineConfig{});
    EXPECT_EQ(backend->queueDepth(), 0);
    EXPECT_EQ(backend->completedRuns(), 0);
    EXPECT_EQ(backend->completedTasks(), 0);

    const ModelWorkload a = generateModelWorkload(prefillSpec(4));
    const ModelWorkload b = generateModelWorkload(decodeSpec(5));
    auto runA = backend->begin(gridTasks(a));
    EXPECT_EQ(backend->queueDepth(), 1);
    auto runB = backend->begin(gridTasks(b));
    EXPECT_EQ(backend->queueDepth(), 2);

    (void)runA->finish();
    // Finishing counts the completion; depth falls at destruction.
    EXPECT_EQ(backend->completedRuns(), 1);
    EXPECT_EQ(backend->completedTasks(),
              static_cast<std::int64_t>(a.size()));
    EXPECT_EQ(backend->queueDepth(), 2);
    runA.reset();
    EXPECT_EQ(backend->queueDepth(), 1);

    // An abandoned run (deadline path) releases depth but never
    // counts as completed.
    runB.reset();
    EXPECT_EQ(backend->queueDepth(), 0);
    EXPECT_EQ(backend->completedRuns(), 1);
    EXPECT_EQ(backend->completedTasks(),
              static_cast<std::int64_t>(a.size()));
}

TEST_P(BackendConformance, CancelPreservesSlotAlignment)
{
    const EngineConfig ecfg;
    auto backend = makeBackend(GetParam(), ecfg);
    const ModelWorkload mw = generateModelWorkload(prefillSpec(6));
    const std::vector<HeadTask> tasks = gridTasks(mw);
    ASSERT_GE(tasks.size(), 2u);
    auto run = backend->begin(tasks);
    run->step();
    run->cancel(0);
    EXPECT_TRUE(run->cancelled(0));
    EXPECT_FALSE(run->cancelled(1));
    const EngineResult got = run->finish();
    const EngineResult ref = Engine(ecfg).run(tasks);
    // The cancelled head still occupies its slot; the survivor is
    // bit-exact vs the uncancelled reference run.
    ASSERT_EQ(got.heads.size(), ref.heads.size());
    expectSameResult(got.heads[1].result, ref.heads[1].result);
}

TEST_P(BackendConformance, DegradedKeepFactorMatchesScaledConfig)
{
    const EngineConfig ecfg;
    const double keep = 0.5;
    auto backend = makeBackend(GetParam(), ecfg);
    const ModelWorkload mw = generateModelWorkload(prefillSpec(7));
    const std::vector<HeadTask> tasks = gridTasks(mw);
    const EngineResult got = backend->begin(tasks, keep)->finish();
    const Engine scaled(scaledKeepConfig(ecfg, keep));
    expectSameEngineResult(got, scaled.run(tasks));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::Values(Kind::EngineShared, Kind::EngineOwnedPool),
    [](const ::testing::TestParamInfo<Kind> &info) {
        return kindName(info.param);
    });

// ---------------------------------------------------------------
// Fleet-level conformance behind the scheduler
// ---------------------------------------------------------------

std::vector<Request>
mixedMiniTrace(int n)
{
    std::vector<Request> trace;
    for (int i = 0; i < n; ++i) {
        Request r;
        r.id = static_cast<std::uint64_t>(i);
        const std::uint64_t salt = static_cast<std::uint64_t>(i);
        r.work =
            i % 2 == 0 ? prefillSpec(salt) : decodeSpec(salt);
        trace.push_back(r);
    }
    return trace;
}

/** Fleet of @p n EngineBackends over @p ecfg. */
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

TEST(BackendFleet, IdenticalResultsAcrossFleetSizes)
{
    const std::vector<Request> trace = mixedMiniTrace(8);
    SchedulerConfig base;
    base.headBudget = 4;
    base.faultsFromEnv = false;

    // Serial reference: per-request standalone engine runs.
    std::vector<EngineResult> ref;
    const Engine eng(base.engine);
    for (const Request &r : trace)
        ref.push_back(eng.run(generateModelWorkload(r.work)));

    for (int fleet : {0, 1, 2, 4}) {
        SchedulerConfig cfg = base;
        if (fleet > 0)
            cfg.backends = engineFleet(fleet, cfg.engine);
        Scheduler sched(cfg);
        EXPECT_EQ(sched.fleetSize(),
                  static_cast<std::size_t>(std::max(1, fleet)));
        const auto results = runClosedLoop(sched, trace, 4);
        sched.drain(); // runs fully retired before depth checks
        ASSERT_EQ(results.size(), trace.size()) << fleet;
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(results[i].outcome, Outcome::Completed)
                << "fleet=" << fleet << " req=" << i;
            expectSameEngineResult(results[i].engine, ref[i]);
        }
        const SchedulerStats st = sched.stats();
        EXPECT_EQ(st.submitted, 8);
        EXPECT_EQ(st.completed, 8);
        EXPECT_EQ(st.shed + st.timedOut + st.failed + st.degraded,
                  0);
        // Shard accounting reconciles with the global counters.
        const auto bs = sched.backendStats();
        ASSERT_EQ(bs.size(),
                  static_cast<std::size_t>(std::max(1, fleet)));
        std::int64_t routed = 0, head_tasks = 0;
        for (const BackendStats &b : bs) {
            routed += b.routed;
            head_tasks += b.headTasks;
            EXPECT_EQ(b.queueDepth, 0) << b.name;
        }
        EXPECT_EQ(routed, st.submitted);
        EXPECT_EQ(head_tasks, st.headTasks);
    }
}

TEST(BackendFleet, RoundRobinSpreadsAcrossShards)
{
    SchedulerConfig cfg;
    cfg.startPaused = true;
    cfg.faultsFromEnv = false;
    cfg.backends = engineFleet(4, cfg.engine);
    cfg.routing = RoutingPolicy::RoundRobin;
    Scheduler sched(cfg);
    const std::vector<Request> trace = mixedMiniTrace(8);
    std::vector<std::future<RequestResult>> futs;
    for (const Request &r : trace)
        futs.push_back(sched.submit(r));
    sched.drain();
    // 8 requests over 4 shards in static rotation: 2 each, and each
    // result records its placement.
    const auto bs = sched.backendStats();
    ASSERT_EQ(bs.size(), 4u);
    for (const BackendStats &b : bs)
        EXPECT_EQ(b.routed, 2) << b.name;
    std::vector<int> routed(4, 0);
    for (auto &f : futs) {
        const RequestResult r = f.get();
        ASSERT_GE(r.backend, 0);
        ASSERT_LT(r.backend, 4);
        ++routed[static_cast<std::size_t>(r.backend)];
    }
    for (int c : routed)
        EXPECT_EQ(c, 2);
}

TEST(BackendFleet, HeterogeneousFleetStaysBitExact)
{
    SchedulerConfig cfg;
    cfg.headBudget = 4;
    cfg.faultsFromEnv = false;
    cfg.routing = RoutingPolicy::LeastQueueDepth;
    // Shard 1 is prefill-only on an owned pool; shards 0 and 2 serve
    // both kinds on the shared pool.
    for (int i = 0; i < 3; ++i) {
        EngineBackendConfig c;
        c.engine = cfg.engine;
        if (i == 1) {
            c.threads = 2;
            c.caps.supportsDecode = false;
        }
        cfg.backends.push_back(std::make_shared<EngineBackend>(c));
    }
    Scheduler sched(cfg);
    const std::vector<Request> trace = mixedMiniTrace(6);
    const auto results = runClosedLoop(sched, trace, 3);
    const Engine eng(cfg.engine);
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(results[i].outcome, Outcome::Completed) << i;
        expectSameEngineResult(
            results[i].engine,
            eng.run(generateModelWorkload(trace[i].work)));
        // Capability filtering: no decode on the prefill-only shard.
        if (trace[i].kind() == RequestKind::Decode) {
            EXPECT_NE(results[i].backend, 1) << i;
        }
    }
}

// ---------------------------------------------------------------
// The ScopedDefaultThreads hazard, fixed: backends own their pools
// ---------------------------------------------------------------

TEST(BackendFleet, OwnedPoolsNeverTouchTheProcessDefault)
{
    const int override_before = ThreadPool::defaultThreadsOverride();
    const EngineConfig ecfg;
    EngineBackendConfig c2;
    c2.engine = ecfg;
    c2.threads = 2;
    c2.name = "pool2";
    EngineBackendConfig c4;
    c4.engine = ecfg;
    c4.threads = 4;
    c4.name = "pool4";
    EngineBackend b2(c2), b4(c4);
    EXPECT_EQ(b2.ownedPoolThreads(), 2);
    EXPECT_EQ(b4.ownedPoolThreads(), 4);

    const ModelWorkload mw = generateModelWorkload(prefillSpec(9));
    const std::vector<HeadTask> tasks = gridTasks(mw);
    const EngineResult ref = Engine(ecfg).run(tasks);

    // Two backends with different thread counts run concurrently
    // from two threads: no cross-talk, both bit-exact, and the
    // process-wide default pool setting is untouched throughout.
    EngineResult r2, r4;
    std::thread t2(
        [&] { r2 = b2.begin(tasks)->finish(); });
    std::thread t4(
        [&] { r4 = b4.begin(tasks)->finish(); });
    t2.join();
    t4.join();
    expectSameEngineResult(r2, ref);
    expectSameEngineResult(r4, ref);
    EXPECT_EQ(ThreadPool::defaultThreadsOverride(),
              override_before);
}

} // namespace
} // namespace serve
} // namespace sofa
