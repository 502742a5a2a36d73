/**
 * Thread-invariance matrix for the stage engine: every combination of
 * {1, 2, 3, 7, 16} pool participants x {prefill, decode,
 * mixed-ragged} task lists must produce results bit-identical to the
 * serial (ScopedSerial) reference — outputs, selections, every
 * OpCounter field, KV cache hits, tile counts. Each thread count is
 * a different schedule of the same unit grid. Degenerate shapes
 * (more threads than work items, one giant head dominating the cost
 * order) are covered explicitly, because those are the schedules
 * where a non-canonical merge would show up.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/threadpool.h"
#include "core/engine.h"
#include "testutil.h"

namespace sofa {
namespace {

void
expectSameOps(const OpCounter &a, const OpCounter &b,
              const char *what)
{
    ASSERT_EQ(a.adds(), b.adds()) << what;
    ASSERT_EQ(a.cmps(), b.cmps()) << what;
    ASSERT_EQ(a.shifts(), b.shifts()) << what;
    ASSERT_EQ(a.muls(), b.muls()) << what;
    ASSERT_EQ(a.divs(), b.divs()) << what;
    ASSERT_EQ(a.exps(), b.exps()) << what;
}

void
expectSameEngineResult(const EngineResult &a, const EngineResult &b,
                       const char *what)
{
    ASSERT_EQ(a.heads.size(), b.heads.size()) << what;
    for (std::size_t i = 0; i < a.heads.size(); ++i) {
        const HeadResult &ha = a.heads[i];
        const HeadResult &hb = b.heads[i];
        ASSERT_EQ(ha.batch, hb.batch) << what;
        ASSERT_EQ(ha.head, hb.head) << what;
        ASSERT_EQ(ha.keysCached, hb.keysCached) << what;
        ASSERT_EQ(ha.sufaTiles, hb.sufaTiles) << what;
        ASSERT_EQ(ha.result.output, hb.result.output)
            << what << " head " << i;
        ASSERT_EQ(ha.result.selections, hb.result.selections)
            << what << " head " << i;
        ASSERT_EQ(ha.result.keysGenerated, hb.result.keysGenerated)
            << what;
        ASSERT_EQ(ha.result.maxViolations, hb.result.maxViolations)
            << what;
        expectSameOps(ha.result.predictionOps,
                      hb.result.predictionOps, what);
        expectSameOps(ha.result.sortOps, hb.result.sortOps, what);
        expectSameOps(ha.result.formalOps, hb.result.formalOps,
                      what);
        // Quality metrics are doubles but still deterministic sums.
        ASSERT_EQ(ha.result.massRecall, hb.result.massRecall)
            << what;
        ASSERT_EQ(ha.result.topkRecall, hb.result.topkRecall)
            << what;
        ASSERT_EQ(ha.result.outputRelError,
                  hb.result.outputRelError)
            << what;
    }
    expectSameOps(a.predictionOps, b.predictionOps, what);
    expectSameOps(a.sortOps, b.sortOps, what);
    expectSameOps(a.formalOps, b.formalOps, what);
    ASSERT_EQ(a.keysGenerated, b.keysGenerated) << what;
    ASSERT_EQ(a.keysCached, b.keysCached) << what;
    ASSERT_EQ(a.maxViolations, b.maxViolations) << what;
    ASSERT_EQ(a.meanMassRecall, b.meanMassRecall) << what;
    ASSERT_EQ(a.meanTopkRecall, b.meanTopkRecall) << what;
    ASSERT_EQ(a.maxOutputRelError, b.maxOutputRelError) << what;
}

/** Workload set shared by all matrix cases (built once: the dense
 * reference + keys are the expensive part, not the engine). */
struct TaskFixture
{
    std::vector<AttentionWorkload> workloads;
    std::vector<HeadTask> prefill;
    std::vector<HeadTask> decode;
    std::vector<HeadTask> mixed;

    TaskFixture()
    {
        // Ragged prefill shapes: one giant head (index 0) that leads
        // the cost order, several small ones, and a single-row head
        // (degenerate tile grid).
        std::vector<WorkloadSpec> specs;
        WorkloadSpec giant;
        giant.seq = 256;
        giant.queries = 24;
        giant.headDim = 16;
        giant.tokenDim = 24;
        giant.seed = testutil::kTestSeed + 1;
        specs.push_back(giant);
        for (int i = 0; i < 4; ++i) {
            WorkloadSpec s;
            s.seq = 48 + 16 * i;
            s.queries = 3 + i;
            s.headDim = 16;
            s.tokenDim = 24;
            s.seed = testutil::kTestSeed + 2 + i;
            specs.push_back(s);
        }
        WorkloadSpec tiny;
        tiny.seq = 32;
        tiny.queries = 1;
        tiny.headDim = 16;
        tiny.tokenDim = 24;
        tiny.seed = testutil::kTestSeed + 9;
        specs.push_back(tiny);
        workloads.reserve(specs.size());
        for (const WorkloadSpec &s : specs)
            workloads.push_back(generateWorkload(s));

        for (std::size_t i = 0; i < workloads.size(); ++i) {
            HeadTask t;
            t.workload = &workloads[i];
            t.batch = static_cast<int>(i / 2);
            t.head = static_cast<int>(i % 2);
            prefill.push_back(t);

            // Decode view of the same heads: most keys cached.
            HeadTask d = t;
            d.pastLen = static_cast<int>(
                workloads[i].k.rows() > 8
                    ? workloads[i].k.rows() - 4
                    : 0);
            decode.push_back(d);

            mixed.push_back(i % 2 ? d : t);
        }
    }
};

const TaskFixture &
fixture()
{
    static const TaskFixture f;
    return f;
}

EngineConfig
baseConfig(ThreadPool *pool)
{
    EngineConfig cfg;
    cfg.pipeline.topkFrac = 0.25;
    cfg.rowTile = 4; // several tiles per head
    cfg.computeQuality = false; // the matrix is about scheduling
    cfg.pool = pool;
    return cfg;
}

class EngineInvariance
    : public ::testing::TestWithParam<const char *>
{
  protected:
    const std::vector<HeadTask> &
    tasks() const
    {
        const TaskFixture &f = fixture();
        const std::string which = GetParam();
        if (which == "prefill")
            return f.prefill;
        if (which == "decode")
            return f.decode;
        return f.mixed;
    }
};

TEST_P(EngineInvariance, BitExactAcrossThreadsAndSchedulers)
{
    const std::vector<HeadTask> &ts = tasks();

    // Reference: the serial path (the unit grid in ascending order on
    // the caller).
    EngineResult ref;
    {
        ThreadPool::ScopedSerial serial;
        ref = Engine(baseConfig(nullptr)).run(ts);
    }
    ASSERT_EQ(ref.heads.size(), ts.size());
    ASSERT_GT(ref.totalOps().total(), 0);

    for (int threads : {1, 2, 3, 7, 16}) {
        ThreadPool pool(threads);
        const EngineResult er = Engine(baseConfig(&pool)).run(ts);
        const std::string what = std::string(GetParam()) + "/" +
                                 std::to_string(threads) + "t";
        expectSameEngineResult(er, ref, what.c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineInvariance,
                         ::testing::Values("prefill", "decode",
                                           "mixed"));

TEST(EngineInvariance, QualityMetricsInvariantToo)
{
    // One smaller case with the quality stage on: its reductions are
    // also merged canonically, so even the float metrics match.
    const TaskFixture &f = fixture();
    std::vector<HeadTask> ts(f.prefill.begin(),
                             f.prefill.begin() + 3);
    EngineConfig cfg = baseConfig(nullptr);
    cfg.computeQuality = true;
    EngineResult ref;
    {
        ThreadPool::ScopedSerial serial;
        ref = Engine(cfg).run(ts);
    }
    ThreadPool pool(7);
    cfg.pool = &pool;
    const EngineResult er = Engine(cfg).run(ts);
    expectSameEngineResult(er, ref, "quality/7t");
}

TEST(EngineInvariance, MoreThreadsThanWork)
{
    // Degenerate shape: one task, 16 participants — in the
    // whole-head stages everyone but one claimant finds no work.
    const TaskFixture &f = fixture();
    std::vector<HeadTask> one(f.prefill.begin(),
                              f.prefill.begin() + 1);
    EngineResult ref;
    {
        ThreadPool::ScopedSerial serial;
        ref = Engine(baseConfig(nullptr)).run(one);
    }
    ThreadPool pool(16);
    const EngineResult er = Engine(baseConfig(&pool)).run(one);
    expectSameEngineResult(er, ref, "one-task/16t");
}

} // namespace
} // namespace sofa
