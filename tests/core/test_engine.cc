#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "core/engine.h"
#include "testutil.h"

namespace sofa {
namespace {

ModelWorkloadSpec
gridSpec(int batch = 2, int heads = 2)
{
    ModelWorkloadSpec spec;
    spec.batch = batch;
    spec.heads = heads;
    spec.seq = 128;
    spec.queries = 12;
    spec.headDim = 16;
    spec.tokenDim = 24;
    return spec;
}

/** Every field of the two per-head results must agree exactly. */
void
expectSameResult(const PipelineResult &a, const PipelineResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.selections, b.selections);
    EXPECT_EQ(a.predictionOps.total(), b.predictionOps.total());
    EXPECT_EQ(a.sortOps.total(), b.sortOps.total());
    EXPECT_EQ(a.formalOps.total(), b.formalOps.total());
    EXPECT_EQ(a.formalOps.muls(), b.formalOps.muls());
    EXPECT_EQ(a.formalOps.exps(), b.formalOps.exps());
    EXPECT_EQ(a.keysGenerated, b.keysGenerated);
    EXPECT_EQ(a.maxViolations, b.maxViolations);
    EXPECT_DOUBLE_EQ(a.massRecall, b.massRecall);
    EXPECT_DOUBLE_EQ(a.topkRecall, b.topkRecall);
    EXPECT_DOUBLE_EQ(a.outputRelError, b.outputRelError);
}

TEST(Engine, BitExactVsPerHeadPipelineLoopSerial)
{
    ThreadPool::ScopedSerial serial;
    const auto mw = generateModelWorkload(gridSpec());
    EngineConfig cfg;
    cfg.pipeline.topkFrac = 0.2;
    const EngineResult er = runEngine(mw, cfg);
    ASSERT_EQ(er.heads.size(), mw.size());
    const std::int64_t kept =
        pipelineKeepCount(cfg.pipeline.topkFrac, 128);
    const std::int64_t tiles_per_row =
        (kept + cfg.pipeline.sufa.blockCols - 1) /
        cfg.pipeline.sufa.blockCols;
    for (const HeadResult &hr : er.heads) {
        const PipelineResult ref = runSofaPipeline(
            mw.head(hr.batch, hr.head), cfg.pipeline);
        expectSameResult(hr.result, ref);
        EXPECT_EQ(hr.keysCached, 0); // prefill: no cache
        EXPECT_EQ(hr.sufaTiles, 12 * tiles_per_row);
    }
}

TEST(Engine, BitExactAcrossThreadCounts)
{
    const auto mw = generateModelWorkload(gridSpec(2, 3));
    EngineConfig cfg;
    cfg.rowTile = 4; // force several row tiles per head
    EngineResult serial_res;
    {
        ThreadPool::ScopedSerial serial;
        serial_res = runEngine(mw, cfg);
    }
    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        EngineConfig tcfg = cfg;
        tcfg.pool = &pool;
        const EngineResult er = runEngine(mw, tcfg);
        ASSERT_EQ(er.heads.size(), serial_res.heads.size())
            << threads << " threads";
        for (std::size_t i = 0; i < er.heads.size(); ++i)
            expectSameResult(er.heads[i].result,
                             serial_res.heads[i].result);
        EXPECT_EQ(er.totalOps().total(),
                  serial_res.totalOps().total());
        EXPECT_EQ(er.maxViolations, serial_res.maxViolations);
    }
}

TEST(Engine, AggregatesAreHeadSums)
{
    const auto mw = generateModelWorkload(gridSpec());
    const EngineResult er = runEngine(mw, EngineConfig{});
    OpCounter pred, sort, formal;
    std::int64_t keys = 0, viol = 0;
    for (const HeadResult &hr : er.heads) {
        pred += hr.result.predictionOps;
        sort += hr.result.sortOps;
        formal += hr.result.formalOps;
        keys += hr.result.keysGenerated;
        viol += hr.result.maxViolations;
    }
    EXPECT_EQ(er.predictionOps.total(), pred.total());
    EXPECT_EQ(er.sortOps.total(), sort.total());
    EXPECT_EQ(er.formalOps.total(), formal.total());
    EXPECT_EQ(er.keysGenerated, keys);
    EXPECT_EQ(er.maxViolations, viol);
}

TEST(Engine, EmptyBatchRuns)
{
    ModelWorkloadSpec spec = gridSpec(0, 2);
    const auto mw = generateModelWorkload(spec);
    const EngineResult er = runEngine(mw, EngineConfig{});
    EXPECT_TRUE(er.heads.empty());
    EXPECT_EQ(er.totalOps().total(), 0);
    EXPECT_EQ(er.keysGenerated, 0);
    EXPECT_DOUBLE_EQ(er.meanMassRecall, 0.0);
}

TEST(Engine, SingleTokenDecodeUsesKvCache)
{
    ModelWorkloadSpec spec = gridSpec(1, 2);
    spec.pastLen = 127;
    spec.newTokens = 1;
    const auto mw = generateModelWorkload(spec);
    EngineConfig cfg;
    cfg.pipeline.topkFrac = 0.25;
    const EngineResult er = runEngine(mw, cfg);
    ASSERT_EQ(er.heads.size(), 2u);
    for (const HeadResult &hr : er.heads) {
        const AttentionWorkload &w = mw.head(hr.batch, hr.head);
        // One query row; the cache serves every required key below
        // pastLen, so at most one (the new token) is generated.
        EXPECT_EQ(hr.result.output.rows(), 1u);
        EXPECT_LE(hr.result.keysGenerated, 1);
        EXPECT_GT(hr.keysCached, 0);

        // Exact relation to the cache-less per-head pipeline: same
        // values, same counts except the cached keys' generation
        // charge.
        const PipelineResult ref =
            runSofaPipeline(w, cfg.pipeline);
        EXPECT_EQ(hr.result.output, ref.output);
        EXPECT_EQ(hr.result.selections, ref.selections);
        EXPECT_EQ(hr.result.keysGenerated + hr.keysCached,
                  ref.keysGenerated);
        OpCounter adjusted = hr.result.formalOps;
        adjusted += kvGenerationOps(hr.keysCached, w.spec.tokenDim,
                                    w.spec.headDim);
        EXPECT_EQ(adjusted.total(), ref.formalOps.total());
        EXPECT_EQ(adjusted.muls(), ref.formalOps.muls());
        EXPECT_EQ(adjusted.adds(), ref.formalOps.adds());
    }
    EXPECT_GT(er.keysCached, 0);
}

TEST(Engine, DecodeCheaperThanPrefillPerRow)
{
    ModelWorkloadSpec prefill = gridSpec(1, 2);
    ModelWorkloadSpec decode = gridSpec(1, 2);
    decode.pastLen = 124;
    decode.newTokens = 4;
    decode.seq = 0; // ignored in decode mode
    EngineConfig cfg;
    const auto pr = runEngine(generateModelWorkload(prefill), cfg);
    const auto dr = runEngine(generateModelWorkload(decode), cfg);
    const double pr_rows = 2.0 * prefill.queryRows();
    const double dr_rows = 2.0 * decode.queryRows();
    EXPECT_LT(dr.formalOps.normalized() / dr_rows,
              pr.formalOps.normalized() / pr_rows);
}

TEST(Engine, RaggedHeadsRun)
{
    // Heads of different shapes in one task list (ragged batches:
    // requests with different prompt lengths / query counts).
    WorkloadSpec a, b;
    a.seq = 96;
    a.queries = 7;
    a.headDim = 16;
    a.tokenDim = 24;
    b = a;
    b.seq = 160;
    b.queries = 3;
    b.seed = a.seed + 17;
    const AttentionWorkload wa = generateWorkload(a);
    const AttentionWorkload wb = generateWorkload(b);
    std::vector<HeadTask> tasks(2);
    tasks[0].workload = &wa;
    tasks[1].workload = &wb;
    tasks[1].head = 1;
    EngineConfig cfg;
    cfg.rowTile = 2;
    const EngineResult er = Engine(cfg).run(tasks);
    ASSERT_EQ(er.heads.size(), 2u);
    expectSameResult(er.heads[0].result,
                     runSofaPipeline(wa, cfg.pipeline));
    expectSameResult(er.heads[1].result,
                     runSofaPipeline(wb, cfg.pipeline));
    EXPECT_EQ(er.heads[0].result.output.rows(), 7u);
    EXPECT_EQ(er.heads[1].result.output.rows(), 3u);
}

TEST(Engine, RowTileDoesNotChangeResults)
{
    const auto mw = generateModelWorkload(gridSpec());
    EngineConfig coarse, fine;
    coarse.rowTile = 1024;
    fine.rowTile = 1;
    const EngineResult rc = runEngine(mw, coarse);
    const EngineResult rf = runEngine(mw, fine);
    ASSERT_EQ(rc.heads.size(), rf.heads.size());
    for (std::size_t i = 0; i < rc.heads.size(); ++i)
        expectSameResult(rc.heads[i].result, rf.heads[i].result);
}

TEST(Engine, RowsSmallerThanRowTileClamp)
{
    // rows < rowTile: the tile clamps to the actual row count before
    // sharding, so an oversized tile is just "one unit per head".
    ModelWorkloadSpec spec = gridSpec(1, 2);
    spec.queries = 3;
    const auto mw = generateModelWorkload(spec);
    EngineConfig cfg;
    cfg.rowTile = 4096;
    const EngineResult er = runEngine(mw, cfg);
    ASSERT_EQ(er.heads.size(), 2u);
    for (const HeadResult &hr : er.heads)
        expectSameResult(hr.result,
                         runSofaPipeline(mw.head(hr.batch, hr.head),
                                         cfg.pipeline));
}

TEST(Engine, QualityStageSkippable)
{
    const auto mw = generateModelWorkload(gridSpec(1, 1));
    EngineConfig cfg;
    cfg.computeQuality = false;
    const EngineResult er = runEngine(mw, cfg);
    // Outputs and counts are produced; quality metrics stay zero.
    EXPECT_GT(er.totalOps().total(), 0);
    EXPECT_GT(er.heads[0].result.output.rows(), 0u);
    EXPECT_DOUBLE_EQ(er.meanMassRecall, 0.0);
    EXPECT_DOUBLE_EQ(er.heads[0].result.outputRelError, 0.0);
}

TEST(Engine, StageNamesInPipelineOrder)
{
    const std::vector<std::string> names =
        Engine(EngineConfig{}).stageNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "dlzs_predict");
    EXPECT_EQ(names[1], "sads_topk");
    EXPECT_EQ(names[2], "kv_generate");
    EXPECT_EQ(names[3], "sufa_attention");
    EXPECT_EQ(names[4], "quality");
}

TEST(EngineRun, StepwiseMatchesWholeRun)
{
    const auto mw = generateModelWorkload(gridSpec());
    EngineConfig cfg;
    cfg.pipeline.topkFrac = 0.2;
    Engine engine(cfg);
    const EngineResult whole = engine.run(mw);

    std::vector<HeadTask> tasks;
    for (int b = 0; b < mw.batch(); ++b)
        for (int h = 0; h < mw.heads(); ++h) {
            HeadTask t;
            t.workload = &mw.head(b, h);
            t.batch = b;
            t.head = h;
            tasks.push_back(t);
        }
    EngineRun run(engine, tasks);
    EXPECT_EQ(run.stageCount(), 5u);
    std::size_t steps = 0;
    while (!run.done()) {
        EXPECT_EQ(run.nextStage(), steps);
        EXPECT_STREQ(run.nextStageName(),
                     engine.stageNames()[steps].c_str());
        run.step();
        ++steps;
    }
    EXPECT_EQ(steps, run.stageCount());
    EXPECT_EQ(run.nextStageName(), nullptr);
    const EngineResult stepped = run.finish();

    ASSERT_EQ(stepped.heads.size(), whole.heads.size());
    for (std::size_t i = 0; i < stepped.heads.size(); ++i)
        expectSameResult(stepped.heads[i].result,
                         whole.heads[i].result);
    EXPECT_EQ(stepped.totalOps().total(), whole.totalOps().total());
    EXPECT_DOUBLE_EQ(stepped.meanMassRecall, whole.meanMassRecall);
}

TEST(EngineRun, FinishRunsRemainingStages)
{
    const auto mw = generateModelWorkload(gridSpec(1, 2));
    Engine engine{EngineConfig{}};
    std::vector<HeadTask> tasks;
    for (int h = 0; h < 2; ++h) {
        HeadTask t;
        t.workload = &mw.head(0, h);
        t.head = h;
        tasks.push_back(t);
    }
    EngineRun run(engine, tasks);
    run.step(); // one stage by hand, finish() does the rest
    const EngineResult res = run.finish();
    const EngineResult whole = engine.run(mw);
    ASSERT_EQ(res.heads.size(), whole.heads.size());
    for (std::size_t i = 0; i < res.heads.size(); ++i)
        expectSameResult(res.heads[i].result,
                         whole.heads[i].result);
}

TEST(EngineRun, AggregateHeadResultsMatchesRunAggregate)
{
    const auto mw = generateModelWorkload(gridSpec());
    const EngineResult whole = runEngine(mw, EngineConfig{});
    // Re-aggregating the same heads reproduces every summary field.
    EngineResult again = aggregateHeadResults(whole.heads);
    EXPECT_EQ(again.totalOps().total(), whole.totalOps().total());
    EXPECT_EQ(again.keysGenerated, whole.keysGenerated);
    EXPECT_EQ(again.keysCached, whole.keysCached);
    EXPECT_DOUBLE_EQ(again.meanMassRecall, whole.meanMassRecall);
    EXPECT_DOUBLE_EQ(again.meanTopkRecall, whole.meanTopkRecall);
    EXPECT_DOUBLE_EQ(again.maxOutputRelError,
                     whole.maxOutputRelError);
    // And the empty aggregate is all zeros.
    const EngineResult empty = aggregateHeadResults({});
    EXPECT_EQ(empty.totalOps().total(), 0);
    EXPECT_DOUBLE_EQ(empty.meanMassRecall, 0.0);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const auto mw = generateModelWorkload(gridSpec());
    const EngineResult a = runEngine(mw, EngineConfig{});
    const EngineResult b = runEngine(mw, EngineConfig{});
    ASSERT_EQ(a.heads.size(), b.heads.size());
    for (std::size_t i = 0; i < a.heads.size(); ++i)
        expectSameResult(a.heads[i].result, b.heads[i].result);
}

} // namespace
} // namespace sofa
