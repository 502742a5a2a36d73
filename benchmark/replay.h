/**
 * @file
 * The traced run's layer replay and the kernel calibration. The
 * replay takes a fixed sample of a workload's requests outside the
 * scheduler: generateModelWorkload is timed directly, then each
 * request's EngineRun is stepped stage by stage on explicit
 * ThreadPools of 1, 2 and 4 threads (EngineConfig.pool), which gives
 * per-stage Gop/s, the thread-scaling curve and exact op and key
 * counts. The calibration times the blocked matmulNT kernel the
 * engine's throughput is compared against.
 *
 * Units: seconds; ops are OpCounter totals (unweighted primitive
 * ops); kernel throughput in GFLOP/s (2 flops per multiply-add).
 */

#ifndef SOFA_BENCHMARK_REPLAY_H
#define SOFA_BENCHMARK_REPLAY_H

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "model/model_workload.h"
#include "serve/request.h"
#include "tracing.h"

namespace sofa {
namespace servingbench {

/** One head task per (batch, head) of @p mw, in the order the engine
 * assembles them. A decode reads its cached context (pastLen) unless
 * @p cold, as after its KV reservation was evicted. */
std::vector<HeadTask> headTasks(const ModelWorkload &mw, bool cold);

/** Thread counts the replay steps every request at. */
constexpr int kReplayThreadCounts[] = {1, 2, 4};
constexpr int kReplayConfigs = 3;

/** Requests the replay samples from a workload. */
constexpr int kReplayRequests = 16;

/** Single-thread GFLOP/s of a 256^3 matmulNTBlocked, best of 5
 * after a 50 ms warm-up. */
double kernelGflops();

struct ReplayResult
{
    int requests = 0;
    double generateSeconds = 0.0;
    /** Summed stage seconds (kStageSpanNames order) per thread
     * count of kReplayThreadCounts. */
    double stageSeconds[kReplayConfigs][kStageSpans] = {};
    std::int64_t predictionOps = 0; ///< DLZS
    std::int64_t sortOps = 0;       ///< SADS
    std::int64_t formalOps = 0;     ///< KV generation + SU-FA
    std::int64_t keysGenerated = 0;
    std::int64_t keysCached = 0;

    /** Engine seconds (all stages + assemble) at config @p c. */
    double engineSeconds(int c) const;
};

/** Replay @p sample under engine config @p engine (its pool is
 * replaced by the explicit replay pools). */
ReplayResult replayLayers(const std::vector<serve::Request> &sample,
                          const EngineConfig &engine);

} // namespace servingbench
} // namespace sofa

#endif // SOFA_BENCHMARK_REPLAY_H
