#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <vector>

#include "common/threadpool.h"
#include "serve/scheduler.h"
#include "testutil.h"

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

Request
makeRequest(std::uint64_t id, const ModelWorkloadSpec &work)
{
    Request r;
    r.id = id;
    r.work = work;
    return r;
}

/** Alternating prefill/decode trace with decorrelated seeds. */
std::vector<Request>
mixedMiniTrace(int n)
{
    std::vector<Request> trace;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t salt = static_cast<std::uint64_t>(i);
        trace.push_back(makeRequest(
            static_cast<std::uint64_t>(i),
            i % 2 == 0 ? prefillSpec(salt) : decodeSpec(salt)));
    }
    return trace;
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

/** Per-request scheduler result vs a standalone Engine::run. */
void
expectMatchesStandalone(const RequestResult &r,
                        const Request &req,
                        const EngineConfig &ecfg)
{
    ASSERT_EQ(r.outcome, Outcome::Completed);
    const EngineResult ref =
        runEngine(generateModelWorkload(req.work), ecfg);
    ASSERT_EQ(r.engine.heads.size(), ref.heads.size());
    for (std::size_t h = 0; h < ref.heads.size(); ++h) {
        EXPECT_EQ(r.engine.heads[h].batch, ref.heads[h].batch);
        EXPECT_EQ(r.engine.heads[h].head, ref.heads[h].head);
        expectSameResult(r.engine.heads[h].result,
                         ref.heads[h].result);
    }
    EXPECT_EQ(r.engine.totalOps().total(),
              ref.totalOps().total());
    EXPECT_EQ(r.engine.keysGenerated, ref.keysGenerated);
    EXPECT_EQ(r.engine.keysCached, ref.keysCached);
    EXPECT_DOUBLE_EQ(r.engine.meanMassRecall, ref.meanMassRecall);
}

/** Backend decorator that forwards every run to an inner backend
 * and records the most runs the inner one had in flight right after
 * a begin(): the peak number of concurrent engine runs. */
class DepthProbe : public Backend
{
  public:
    explicit DepthProbe(std::shared_ptr<Backend> inner)
        : Backend("probe"), inner_(std::move(inner))
    {
    }

    BackendCapabilities capabilities() const override
    {
        return inner_->capabilities();
    }
    int maxDepth() const { return maxDepth_.load(); }

  protected:
    std::unique_ptr<BackendRun>
    beginRun(std::vector<HeadTask> tasks, double keep_factor) override
    {
        auto run = inner_->begin(std::move(tasks), keep_factor);
        const int depth = inner_->queueDepth();
        int seen = maxDepth_.load();
        while (depth > seen &&
               !maxDepth_.compare_exchange_weak(seen, depth)) {
        }
        return run;
    }

  private:
    std::shared_ptr<Backend> inner_;
    std::atomic<int> maxDepth_{0};
};

TEST(Scheduler, ZeroRequestTrace)
{
    Scheduler sched;
    const auto results = runClosedLoop(sched, {}, 4);
    EXPECT_TRUE(results.empty());
    sched.drain(); // idle drain returns immediately
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.submitted, 0);
    EXPECT_EQ(st.completed, 0);
    EXPECT_EQ(st.batches, 0);
}

TEST(Scheduler, SingleRequestDegeneratesToEngineRun)
{
    SchedulerConfig cfg;
    Scheduler sched(cfg);
    const Request req = makeRequest(7, prefillSpec());
    std::future<RequestResult> fut = sched.submit(req);
    const RequestResult r = fut.get();
    EXPECT_EQ(r.id, 7u);
    EXPECT_EQ(r.kind, RequestKind::Prefill);
    EXPECT_EQ(r.coscheduledHeads, 2); // its own heads only
    expectMatchesStandalone(r, req, cfg.engine);
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.batches, 1);
    EXPECT_EQ(st.completed, 1);
    EXPECT_EQ(st.headTasks, 2);
    EXPECT_GE(r.totalSeconds,
              r.queueSeconds); // breakdown is consistent
}

TEST(Scheduler, MixedPrefillDecodeBitExactVsSequential)
{
    const std::vector<Request> trace = mixedMiniTrace(6);
    SchedulerConfig cfg;
    cfg.lanes = 2;
    cfg.headBudget = 4; // forces multi-request, multi-batch runs
    Scheduler sched(cfg);
    const auto results = runClosedLoop(sched, trace, 3);
    ASSERT_EQ(results.size(), trace.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].id, trace[i].id);
        EXPECT_EQ(results[i].kind, trace[i].kind());
        expectMatchesStandalone(results[i], trace[i], cfg.engine);
    }
}

TEST(Scheduler, BurstBeyondAdmissionShedsExplicitly)
{
    SchedulerConfig cfg;
    cfg.maxQueue = 3;
    cfg.startPaused = true; // deterministic: nothing drains yet
    cfg.headBudget = 4;
    Scheduler sched(cfg);
    const std::vector<Request> trace = mixedMiniTrace(8);
    std::vector<std::future<RequestResult>> futs;
    for (const Request &r : trace)
        futs.push_back(sched.submit(r));
    // Shed futures resolve immediately, before start().
    for (std::size_t i = 3; i < futs.size(); ++i) {
        ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "shed future " << i << " must resolve immediately";
    }
    sched.drain();
    int completed = 0, shed = 0;
    for (std::size_t i = 0; i < futs.size(); ++i) {
        const RequestResult r = futs[i].get();
        EXPECT_EQ(r.id, trace[i].id); // shed or not, identity kept
        if (r.outcome == Outcome::Completed) {
            ++completed;
            expectMatchesStandalone(r, trace[i], cfg.engine);
        } else {
            ++shed;
            EXPECT_TRUE(r.engine.heads.empty());
        }
    }
    // FIFO admission: exactly the first maxQueue requests complete.
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(shed, 5);
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.submitted, 8);
    EXPECT_EQ(st.admitted, 3);
    EXPECT_EQ(st.shed, 5);
    EXPECT_EQ(st.completed, 3);
}

TEST(Scheduler, PausedStartMergesIntoContinuousBatches)
{
    SchedulerConfig cfg;
    cfg.startPaused = true;
    cfg.headBudget = 8; // 4 two-head requests per batch
    Scheduler sched(cfg);
    std::vector<std::future<RequestResult>> futs;
    const std::vector<Request> trace = mixedMiniTrace(8);
    for (const Request &r : trace)
        futs.push_back(sched.submit(r));
    sched.drain();
    const SchedulerStats st = sched.stats();
    EXPECT_EQ(st.completed, 8);
    EXPECT_EQ(st.batches, 2); // 8 requests x 2 heads / budget 8
    EXPECT_DOUBLE_EQ(st.meanBatchRequests, 4.0);
    EXPECT_EQ(st.maxQueueDepth, 8);
    for (auto &f : futs)
        EXPECT_EQ(f.get().coscheduledHeads, 8);
}

TEST(Scheduler, LanesBoundConcurrentEngineRuns)
{
    // A paused burst of one-request batches: a shard never has more
    // engine runs in flight than it has lanes (at least one), and a
    // single lane runs its batches strictly one at a time.
    for (int lanes : {0, 1, 2}) {
        auto probe = std::make_shared<DepthProbe>(
            std::make_shared<EngineBackend>());
        SchedulerConfig cfg;
        cfg.lanes = lanes;
        cfg.startPaused = true;
        cfg.headBudget = 2; // one two-head request per batch
        cfg.backends = {probe};
        Scheduler sched(cfg);
        std::vector<std::future<RequestResult>> futs;
        for (const Request &r : mixedMiniTrace(8))
            futs.push_back(sched.submit(r));
        sched.drain();
        for (auto &f : futs)
            EXPECT_EQ(f.get().outcome, Outcome::Completed) << lanes;
        EXPECT_GE(sched.stats().batches, 4) << lanes;
        if (lanes <= 1)
            EXPECT_EQ(probe->maxDepth(), 1) << lanes;
        else
            EXPECT_LE(probe->maxDepth(), lanes);
    }
}

TEST(Scheduler, DeterministicAcrossPoolsAndSerial)
{
    const std::vector<Request> trace = mixedMiniTrace(4);
    SchedulerConfig cfg;
    cfg.lanes = 2;
    cfg.headBudget = 4;

    // Reference: forced-serial execution (every parallelFor inline).
    std::vector<RequestResult> serial;
    {
        ThreadPool::ScopedSerial guard;
        Scheduler sched(cfg);
        serial = runClosedLoop(sched, trace, 2);
    }
    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        SchedulerConfig tcfg = cfg;
        tcfg.engine.pool = &pool;
        Scheduler sched(tcfg);
        const auto results = runClosedLoop(sched, trace, 2);
        ASSERT_EQ(results.size(), serial.size()) << threads;
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(results[i].engine.heads.size(),
                      serial[i].engine.heads.size());
            for (std::size_t h = 0;
                 h < results[i].engine.heads.size(); ++h)
                expectSameResult(results[i].engine.heads[h].result,
                                 serial[i].engine.heads[h].result);
            EXPECT_EQ(results[i].engine.totalOps().total(),
                      serial[i].engine.totalOps().total());
        }
    }
}

TEST(Scheduler, DestructorDrainsAdmittedRequests)
{
    std::future<RequestResult> fut;
    {
        SchedulerConfig cfg;
        cfg.startPaused = true; // still queued when the dtor runs
        Scheduler sched(cfg);
        fut = sched.submit(makeRequest(1, prefillSpec()));
    }
    // The scheduler is gone; the admitted request still completed.
    const RequestResult r = fut.get();
    EXPECT_EQ(r.outcome, Outcome::Completed);
    EXPECT_GT(r.engine.totalOps().total(), 0);
}

TEST(Scheduler, ReplayTraceHonorsArrivalOrder)
{
    std::vector<Request> trace = mixedMiniTrace(3);
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].arrival = static_cast<double>(i) * 1e-3;
    Scheduler sched;
    const auto results = replayTrace(sched, trace, /*scale=*/1.0);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].id, trace[i].id);
        EXPECT_EQ(results[i].outcome, Outcome::Completed);
    }
}

} // namespace
} // namespace serve
} // namespace sofa
