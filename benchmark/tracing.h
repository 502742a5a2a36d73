/**
 * @file
 * The traced run's request -> stage spans, recorded from outside the
 * program. A TracingBackend decorator wraps each serve::Backend of
 * the scheduler's fleet and records, per engine run, the span of
 * every step() (named by nextStageName()) and of finish() (named
 * "assemble"), the lane thread that stepped it and the requests whose
 * head tasks it carried — found by matching each task's workload seed
 * against headSeed(request seed, 0, h) of the registered requests.
 *
 * breakdown() then splits each request's latency into
 * lag (due -> sent), queue (sent -> dispatch), prepare (dispatch ->
 * Backend::begin: workload generation, KV pin, chunk slicing), the
 * stage spans, assemble, recording overhead and resolve (finish ->
 * resolved), plus whatever time inside its runs no span covers
 * (unattributed). The parts sum to the total by construction.
 *
 * Units: steady-clock seconds (driver.h nowSeconds()).
 */

#ifndef SOFA_BENCHMARK_TRACING_H
#define SOFA_BENCHMARK_TRACING_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "driver.h"
#include "serve/scheduler.h"

namespace sofa {
namespace servingbench {

/** Span names of the engine stages in order, then finish(). */
constexpr int kStageSpans = 6;
constexpr const char *kStageSpanNames[kStageSpans] = {
    "dlzs_predict", "sads_topk", "kv_generate",
    "sufa_attention", "quality", "assemble"};
/** Short names the per-layer metrics use for the same spans. */
constexpr const char *kStageMetricNames[kStageSpans] = {
    "dlzs", "sads", "kv", "sufa", "quality", "assemble"};

/** Index of @p name in kStageSpanNames, or -1. */
int stageIndex(const char *name);

struct Span
{
    const char *name = nullptr; ///< static string (stage name)
    double t0 = 0.0;
    double t1 = 0.0;
};

/** One engine run as seen through the decorator. */
struct RunTrace
{
    int backend = 0; ///< fleet index
    int lane = 0;    ///< lane thread of that backend, first-seen order
    /** Registered requests with tasks in the run, in task order. */
    std::vector<std::uint64_t> requests;
    double start = 0.0; ///< Backend::begin returned
    double end = 0.0;   ///< finish() returned; 0 if never finished
    std::vector<Span> spans;
    double overhead = 0.0; ///< seconds spent recording this run
};

/** Thread-safe store of the runs the decorators record. */
class TraceLog
{
  public:
    /** Make @p r's head tasks attributable (call before submit). */
    void registerRequest(const serve::Request &r);
    /** Drop the runs recorded so far (the warm-up's). */
    void clearRuns();
    /** Every committed run, ordered by start. */
    std::vector<RunTrace> runs() const;
    /** Seconds spent committing runs to the log. */
    double commitSeconds() const;

    /** Fill @p rec's lane and requests for a run whose tasks carry
     * @p seeds, begun on the calling thread. */
    void describeRun(RunTrace &rec,
                     const std::vector<std::uint64_t> &seeds);
    /** Store a finished (or abandoned) run. */
    void commit(RunTrace rec);

  private:
    mutable std::mutex m_;
    std::unordered_map<std::uint64_t, std::uint64_t> seedToRequest_;
    std::map<std::pair<int, std::thread::id>, int> lanes_;
    std::map<int, int> laneCount_;
    std::vector<RunTrace> runs_;
    double commitSeconds_ = 0.0;
};

/** Wrap every backend of @p cfg — the implicit single engine too —
 * in a TracingBackend recording into @p log (which must outlive the
 * scheduler built from @p cfg). */
void traceBackends(serve::SchedulerConfig &cfg, TraceLog &log);

/** One request's latency split; the fields sum to total. */
struct Breakdown
{
    double total = 0.0; ///< due -> resolved
    double lag = 0.0;
    double queue = 0.0;
    double prepare = 0.0;
    double stages[kStageSpans] = {};
    double overhead = 0.0;
    double resolve = 0.0;
    double unattributed = 0.0;
};

/** Runs grouped by the request ids they carried, each list in start
 * order (pointers into @p runs). */
std::unordered_map<std::uint64_t, std::vector<const RunTrace *>>
runsByRequest(const std::vector<RunTrace> &runs);

/** Split the latency of completed request @p s over its @p runs
 * (non-empty, start order). */
Breakdown breakdown(const Sample &s,
                    const std::vector<const RunTrace *> &runs);

/**
 * Write the traced run as Chrome trace-event JSON (Perfetto reads
 * it): one process per backend with one track per lane holding the
 * stage and assemble spans (args.requests lists the request ids),
 * and one async "request" span per request on the driver process
 * with its queue / prepare / resolve parts nested. False on I/O
 * failure.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Sample> &samples,
                      const std::vector<RunTrace> &runs,
                      const std::vector<std::string> &backend_names);

} // namespace servingbench
} // namespace sofa

#endif // SOFA_BENCHMARK_TRACING_H
