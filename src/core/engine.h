/**
 * @file
 * Stage-structured batched multi-head execution engine. The paper's
 * cross-stage pipeline (DLZS prediction -> SADS top-k -> on-demand
 * KV generation -> SU-FA formal compute, Fig. 6, then the optional
 * quality check) is a fixed table of named stage functions run in
 * order over a ModelWorkload's (batch, head) grid. Each stage splits
 * its work into units — whole heads for prediction/KV/quality,
 * (head, query-row tile) pairs for SADS and SU-FA — and hands them to
 * the common/threadpool chunk scheduler one unit per chunk, ordered
 * heaviest-first by a cost estimate so ragged batches load-balance.
 * Per-unit OpCounter tallies are merged by integer addition in
 * canonical unit order, so every result and count is bit-exact for
 * any thread count and schedule, and identical to a per-head
 * `runSofaPipeline` loop.
 *
 * KV-cache decode: a HeadTask's `pastLen` marks keys [0, pastLen)
 * as already resident in the KV cache; the KV stage only charges
 * generation for required keys at index >= pastLen and reports the
 * cache hits in `keysCached`, which is what makes decode steps
 * dramatically cheaper than prefill on the formal-op axis.
 *
 * Two submission granularities: Engine::run executes all stages in
 * order (the whole-run path), while EngineRun exposes the same
 * sequence one step() at a time so a caller — the serve/ scheduler —
 * can hold several runs in flight and interleave their stages on the
 * shared pool (one request's SADS overlapping another's SU-FA).
 * Engine::run is a thin loop over EngineRun, so both paths execute
 * identical per-stage code and stay bit-exact.
 *
 * Units: per-stage OpCounter ops, key counts; quality metrics are
 * fractions (see core/pipeline.h). Cycles/energy live in src/arch.
 */

#ifndef SOFA_CORE_ENGINE_H
#define SOFA_CORE_ENGINE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "model/model_workload.h"

namespace sofa {

class ThreadPool;

/** Engine configuration on top of the pipeline hyperparameters. */
struct EngineConfig
{
    PipelineConfig pipeline;
    /** Query rows per SADS/SU-FA work item (tile), clamped to each
     * head's actual row count before sharding; smaller tiles expose
     * more parallelism, results never depend on it. */
    int rowTile = 64;
    /** Compute the reference-attention quality metrics (skippable:
     * the dense reference costs more than the sparse pipeline). */
    bool computeQuality = true;
    /** Pool to shard over; nullptr = the process-wide instance. */
    ThreadPool *pool = nullptr;
};

/** One unit of the engine's (batch, head) grid. */
struct HeadTask
{
    const AttentionWorkload *workload = nullptr;
    int batch = 0;
    int head = 0;
    /** Keys [0, pastLen) are already resident in the KV cache. */
    int pastLen = 0;
};

/** Per-head outcome: the single-head pipeline result + identity. */
struct HeadResult
{
    int batch = 0;
    int head = 0;
    PipelineResult result;
    /** Required keys served from the KV cache (decode mode). */
    std::int64_t keysCached = 0;
    /** SU-FA tiles processed (SufaResult.tiles, summed over rows). */
    std::int64_t sufaTiles = 0;
};

/** Aggregate outcome over the whole grid. */
struct EngineResult
{
    std::vector<HeadResult> heads;

    OpCounter predictionOps; ///< DLZS, summed over heads
    OpCounter sortOps;       ///< SADS, summed over heads
    OpCounter formalOps;     ///< KV generation + SU-FA, summed
    OpCounter totalOps() const;

    std::int64_t keysGenerated = 0; ///< on-demand KV rows computed
    std::int64_t keysCached = 0;    ///< required rows found in cache
    std::int64_t maxViolations = 0; ///< SU-FA max-ensure fallbacks

    double meanMassRecall = 0.0;      ///< mean over heads
    double meanTopkRecall = 0.0;      ///< mean over heads
    double meanAccuracyLossPct = 0.0; ///< mean over heads
    double maxOutputRelError = 0.0;   ///< worst head
};

struct EngineState; // per-run scratch shared by the stages

/** The stage-structured engine. */
class Engine
{
  public:
    explicit Engine(EngineConfig cfg = {});

    const EngineConfig &config() const { return cfg_; }

    /** Stage names in execution order: dlzs_predict, sads_topk,
     * kv_generate, sufa_attention, quality. Fault plans and
     * EngineRun::nextStageName() use these names. */
    static std::vector<std::string> stageNames();

    /** Run the grid of a generated ModelWorkload. */
    EngineResult run(const ModelWorkload &mw) const;

    /** Run an explicit (possibly ragged) task list: heads may have
     * different shapes and cache depths. */
    EngineResult run(const std::vector<HeadTask> &tasks) const;

  private:
    EngineConfig cfg_;
};

/**
 * Stage-granular submission: one grid run whose stages are executed
 * one step() at a time. The serving scheduler keeps several
 * EngineRuns in flight so their stages interleave on the shared
 * pool; Engine::run(tasks) itself is `EngineRun(...).finish()`, so
 * the stepped path can never drift from the whole-run path.
 */
class EngineRun
{
  public:
    /** Bind a run to @p engine (which must outlive it). The task
     * list is copied; the workloads the tasks point at must stay
     * alive until the run is finished. */
    EngineRun(const Engine &engine, std::vector<HeadTask> tasks);
    ~EngineRun();

    EngineRun(const EngineRun &) = delete;
    EngineRun &operator=(const EngineRun &) = delete;

    std::size_t stageCount() const;
    /** Index of the stage the next step() will execute. */
    std::size_t nextStage() const { return next_; }
    /** Name of that stage; nullptr once every stage has run. */
    const char *nextStageName() const;
    bool done() const;
    /** Execute exactly one stage. Precondition: !done(). */
    void step();
    /** Execute any remaining stages, then assemble the aggregate
     * result. The run is spent afterwards (heads are moved out). */
    EngineResult finish();

    /**
     * Cooperative cancellation: mark task @p i so the remaining
     * stages skip its work (the serving scheduler cancels a
     * deadline-expired request's tasks at a stage-step boundary, so
     * the request stops consuming pool time mid-pipeline). Stages
     * already run are unaffected; the head still occupies slot @p i
     * of the finish() result — with whatever was computed before the
     * cancel — to keep task/result index alignment, and the caller
     * discards it. Results of non-cancelled tasks are bit-identical
     * to a run without any cancellation. Call only between step()s
     * (not concurrently with one).
     */
    void cancel(std::size_t i);
    /** Whether task @p i has been cancelled. */
    bool cancelled(std::size_t i) const;

  private:
    const Engine &engine_;
    std::vector<HeadTask> tasks_;
    std::unique_ptr<EngineState> state_;
    std::size_t next_ = 0;
};

/**
 * Sum/mean per-head results into the grid aggregate (the tail of
 * Engine::run). Public so the serving scheduler can assemble a
 * per-request EngineResult from its own head subset of a
 * co-scheduled run — the sums visit heads in the same order as a
 * standalone run, so the aggregate is bit-identical.
 */
EngineResult aggregateHeadResults(std::vector<HeadResult> heads);

/** Convenience wrapper: one-shot engine run. */
EngineResult runEngine(const ModelWorkload &mw,
                       const EngineConfig &cfg = {});

} // namespace sofa

#endif // SOFA_CORE_ENGINE_H
