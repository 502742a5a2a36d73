/**
 * @file
 * Randomized routing-determinism properties for the multi-backend
 * scheduler (serve/backend + serve/scheduler): seeded random traces
 * (mixed tenants, prefill/decode blends, deadline opt-outs,
 * occasional SOFA_FAULTS plans) replayed twice on randomly drawn
 * fleets — EngineBackends on the shared pool or on owned pools,
 * decode-capable or prefill-only — must reproduce identical routing
 * decisions (RequestResult.backend), identical outcome counts and
 * per-shard stats, and bit-exact engine results for every surviving
 * request.
 * Plus the no-starvation/balance property of least-queue-depth
 * placement over equal backends.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serve/backend.h"
#include "serve/scheduler.h"
#include "testprop.h"
#include "testutil.h"

namespace sofa {
namespace serve {
namespace {

/** Everything one case needs, drawn up-front so both replays see
 * the identical plan. */
struct CasePlan
{
    /** Per backend: an owned 2-thread pool (else the shared one). */
    std::vector<bool> ownedPool;
    std::vector<bool> decodeCapable; ///< per backend
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    std::vector<Request> trace;
    std::string faultSpec; ///< empty = no injection
};

EngineConfig
tinyEngine()
{
    EngineConfig ecfg;
    ecfg.computeQuality = false; // dense reference not under test
    return ecfg;
}

CasePlan
drawPlan(int c, Rng &rng)
{
    CasePlan plan;
    const int fleet_size =
        static_cast<int>(rng.uniformInt(1, 4));
    bool any_decode = false;
    for (int i = 0; i < fleet_size; ++i) {
        plan.ownedPool.push_back(rng.bernoulli(0.3));
        // Some backends are prefill-only (the disaggregation
        // class); at least one must keep decode capability.
        const bool decode = rng.bernoulli(0.75);
        plan.decodeCapable.push_back(decode);
        any_decode = any_decode || decode;
    }
    if (!any_decode)
        plan.decodeCapable.back() = true;
    const double p = rng.uniform(0.0, 1.0);
    plan.routing = p < 0.34   ? RoutingPolicy::RoundRobin
                   : p < 0.67 ? RoutingPolicy::LeastQueueDepth
                              : RoutingPolicy::Disaggregated;

    const int n = static_cast<int>(rng.uniformInt(3, 6));
    for (int i = 0; i < n; ++i) {
        Request r;
        r.id = static_cast<std::uint64_t>(i);
        ModelWorkloadSpec spec;
        spec.batch = 1;
        spec.heads = static_cast<int>(rng.uniformInt(1, 2));
        spec.seq = static_cast<int>(rng.uniformInt(16, 48));
        spec.headDim = 8;
        spec.tokenDim = 12;
        if (rng.bernoulli(0.5)) {
            spec.queries = static_cast<int>(rng.uniformInt(2, 6));
        } else {
            spec.newTokens =
                static_cast<int>(rng.uniformInt(1, 4));
            spec.pastLen = spec.seq - spec.newTokens;
            spec.queries = 0;
        }
        spec.seed = 0xD1CE0000ull +
                    (static_cast<std::uint64_t>(c) << 8) +
                    static_cast<std::uint64_t>(i);
        r.work = spec;
        r.tenant = static_cast<int>(rng.uniformInt(0, 2));
        // Deadlines never expire (or are opted out): outcome counts
        // must not depend on wall-clock.
        r.deadlineSeconds = rng.bernoulli(0.3) ? -1.0 : 30.0;
        plan.trace.push_back(r);
    }
    // A slice of the cases injects deterministic failures through
    // the SOFA_FAULTS environment path (retry/recovery must not
    // disturb routing determinism).
    if (c % 7 == 0)
        plan.faultSpec = "fail:req=1:stage=sads_topk:attempt<1";
    return plan;
}

std::vector<std::shared_ptr<Backend>>
makeFleet(const CasePlan &plan, const EngineConfig &ecfg)
{
    std::vector<std::shared_ptr<Backend>> fleet;
    for (std::size_t i = 0; i < plan.ownedPool.size(); ++i) {
        const bool owned = plan.ownedPool[i];
        EngineBackendConfig c;
        c.engine = ecfg;
        c.threads = owned ? 2 : 0;
        c.caps.supportsDecode = plan.decodeCapable[i];
        c.name = (owned ? "pool" : "engine") + std::to_string(i);
        fleet.push_back(std::make_shared<EngineBackend>(c));
    }
    return fleet;
}

/** One paused replay of the plan: fresh fleet, submit everything,
 * drain, return per-request results in submit order. */
std::vector<RequestResult>
replayOnce(const CasePlan &plan, std::vector<BackendStats> *shards)
{
    SchedulerConfig cfg;
    cfg.engine = tinyEngine();
    cfg.startPaused = true; // deterministic admission-time routing
    cfg.headBudget = 8;
    cfg.retry.baseSeconds = 1e-6;
    cfg.retry.maxSeconds = 1e-4;
    cfg.backends = makeFleet(plan, cfg.engine);
    cfg.routing = plan.routing;
    Scheduler sched(cfg);
    std::vector<std::future<RequestResult>> futs;
    for (const Request &r : plan.trace)
        futs.push_back(sched.submit(r));
    sched.drain();
    std::vector<RequestResult> results;
    for (auto &f : futs)
        results.push_back(f.get());
    if (shards)
        *shards = sched.backendStats();
    return results;
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
}

TEST(RoutingProp, ReplayReproducesRoutingStatsAndBits)
{
    testprop::forEachSeededCase(200, [](int c, Rng &rng) {
        const CasePlan plan = drawPlan(c, rng);
        if (!plan.faultSpec.empty())
            setenv("SOFA_FAULTS", plan.faultSpec.c_str(), 1);
        std::vector<BackendStats> shardsA, shardsB;
        const auto a = replayOnce(plan, &shardsA);
        const auto b = replayOnce(plan, &shardsB);
        if (!plan.faultSpec.empty())
            unsetenv("SOFA_FAULTS");

        ASSERT_EQ(a.size(), b.size()) << "case " << c;
        for (std::size_t i = 0; i < a.size(); ++i) {
            // The routing decision and the outcome replay exactly.
            EXPECT_EQ(a[i].backend, b[i].backend)
                << "case " << c << " req " << i;
            EXPECT_EQ(static_cast<int>(a[i].outcome),
                      static_cast<int>(b[i].outcome))
                << "case " << c << " req " << i;
            // Survivors are bit-exact across the replays.
            ASSERT_EQ(a[i].engine.heads.size(),
                      b[i].engine.heads.size())
                << "case " << c << " req " << i;
            for (std::size_t h = 0; h < a[i].engine.heads.size();
                 ++h)
                expectSameResult(a[i].engine.heads[h].result,
                                 b[i].engine.heads[h].result);
            EXPECT_EQ(a[i].engine.totalOps().total(),
                      b[i].engine.totalOps().total())
                << "case " << c << " req " << i;
        }
        // Per-shard placement/throughput counters replay too.
        ASSERT_EQ(shardsA.size(), shardsB.size()) << "case " << c;
        std::int64_t routed = 0;
        for (std::size_t s = 0; s < shardsA.size(); ++s) {
            EXPECT_EQ(shardsA[s].name, shardsB[s].name);
            EXPECT_EQ(shardsA[s].routed, shardsB[s].routed)
                << "case " << c << " shard " << s;
            EXPECT_EQ(shardsA[s].headTasks, shardsB[s].headTasks)
                << "case " << c << " shard " << s;
            routed += shardsA[s].routed;
        }
        EXPECT_EQ(routed,
                  static_cast<std::int64_t>(plan.trace.size()))
            << "case " << c;
    });
}

TEST(RoutingProp, DisaggregationRespectsCapabilities)
{
    // Whenever a pure-prefill backend exists, Disaggregated routing
    // must never place a decode on it, and must keep prefills off
    // the KV-cache-warm shards.
    testprop::forEachSeededCase(40, [](int c, Rng &rng) {
        CasePlan plan = drawPlan(c, rng);
        plan.routing = RoutingPolicy::Disaggregated;
        bool any_pure_prefill = false, any_decode = false;
        for (bool d : plan.decodeCapable) {
            any_pure_prefill = any_pure_prefill || !d;
            any_decode = any_decode || d;
        }
        const auto results = replayOnce(plan, nullptr);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::size_t s =
                static_cast<std::size_t>(results[i].backend);
            ASSERT_LT(s, plan.decodeCapable.size());
            if (plan.trace[i].kind() == RequestKind::Decode &&
                any_decode) {
                EXPECT_TRUE(plan.decodeCapable[s])
                    << "case " << c << ": decode on prefill-only "
                    << "shard " << s;
            }
            if (plan.trace[i].kind() == RequestKind::Prefill &&
                any_pure_prefill) {
                EXPECT_FALSE(plan.decodeCapable[s])
                    << "case " << c << ": prefill on warm shard "
                    << s << " while dedicated ones exist";
            }
        }
    });
}

TEST(RoutingProp, LeastQueueDepthNeverStarvesABackend)
{
    // Three identical backends, paused admission: depth-based
    // placement must spread a burst within one request of even, and
    // everything completes (no shard is starved or overloaded).
    SchedulerConfig cfg;
    cfg.engine = tinyEngine();
    cfg.startPaused = true;
    cfg.faultsFromEnv = false;
    cfg.routing = RoutingPolicy::LeastQueueDepth;
    for (int i = 0; i < 3; ++i) {
        EngineBackendConfig c;
        c.engine = cfg.engine;
        c.name = "eq" + std::to_string(i);
        cfg.backends.push_back(std::make_shared<EngineBackend>(c));
    }
    Scheduler sched(cfg);
    std::vector<Request> trace;
    for (int i = 0; i < 10; ++i) {
        Request r;
        r.id = static_cast<std::uint64_t>(i);
        ModelWorkloadSpec spec;
        spec.batch = 1;
        spec.heads = 2;
        spec.seq = 32;
        spec.queries = 4;
        spec.headDim = 8;
        spec.tokenDim = 12;
        spec.seed = 0xFA1A0000ull + static_cast<std::uint64_t>(i);
        r.work = spec;
        trace.push_back(r);
    }
    std::vector<std::future<RequestResult>> futs;
    for (const Request &r : trace)
        futs.push_back(sched.submit(r));
    sched.drain();
    for (auto &f : futs)
        EXPECT_EQ(static_cast<int>(f.get().outcome),
                  static_cast<int>(Outcome::Completed));
    const auto shards = sched.backendStats();
    ASSERT_EQ(shards.size(), 3u);
    std::int64_t lo = shards[0].routed, hi = shards[0].routed;
    for (const BackendStats &s : shards) {
        lo = std::min(lo, s.routed);
        hi = std::max(hi, s.routed);
        EXPECT_GT(s.routed, 0) << s.name << " starved";
    }
    EXPECT_LE(hi - lo, 1) << "imbalanced burst placement";
}

} // namespace
} // namespace serve
} // namespace sofa
