/**
 * @file
 * Serving request and result types for the asynchronous scheduler
 * (serve/scheduler). A Request wraps one ModelWorkloadSpec — usually
 * a single sequence (batch 1, H heads), either a prefill (seq,
 * queries) or a KV-cache decode step (pastLen, newTokens) — plus an
 * arrival offset in the trace it belongs to. A RequestResult carries
 * the per-request EngineResult (merged OpCounters, outputs, quality)
 * and the latency breakdown the serving benchmarks report.
 *
 * Trace builders turn the model/scenarios serving regimes into
 * request streams: per-request workload specs via
 * scenarioWorkloadSpec with deterministic per-request reseeding
 * (headSeed-style splitmix), arrival offsets via arrivalTimes.
 *
 * Units: arrival/latency fields are seconds (arrival is logical
 * trace time, latencies are measured wall-clock); headTasks() and
 * contextTokens() are the budget currencies of batch formation.
 */

#ifndef SOFA_SERVE_REQUEST_H
#define SOFA_SERVE_REQUEST_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "model/scenarios.h"

namespace sofa {
namespace serve {

/** Which serving phase a request models. */
enum class RequestKind {
    Prefill, ///< whole-prompt processing (T = queries over S = seq)
    Decode,  ///< KV-cache step (newTokens fresh rows, pastLen cached)
};

const char *requestKindName(RequestKind k);

/** One serving request: a workload plus its trace arrival offset. */
struct Request
{
    std::uint64_t id = 0;
    /** Arrival offset in seconds of logical trace time. */
    double arrival = 0.0;
    /** The work: shapes + seed. Usually batch = 1 (one sequence);
     * larger grids are allowed and count as more head tasks. */
    ModelWorkloadSpec work;
    /**
     * Completion deadline in seconds of wall-clock time measured
     * from submit(). 0 (the default) defers to the scheduler's
     * `defaultDeadlineSeconds`; a negative value opts this request
     * out of any deadline. Expired requests resolve
     * Outcome::TimedOut — their engine work is cancelled
     * cooperatively at the next stage boundary. The EDF scheduling
     * policy orders batch formation by this deadline.
     */
    double deadlineSeconds = 0.0;
    /** Owning tenant (fairness domain) — the key the deficit-round-
     * robin scheduling policy balances served head tasks across.
     * FIFO and EDF ignore it. */
    int tenant = 0;

    RequestKind kind() const
    {
        return work.isDecode() ? RequestKind::Decode
                               : RequestKind::Prefill;
    }
    /** Head tasks this request puts on the engine grid. */
    std::int64_t headTasks() const
    {
        return static_cast<std::int64_t>(work.batch) * work.heads;
    }
    /** Context tokens the request attends over (the token budget
     * currency: per batch item, independent of head count). */
    std::int64_t contextTokens() const
    {
        return static_cast<std::int64_t>(work.batch) *
               work.contextLen();
    }
};

/** How a submitted request left the scheduler. */
enum class Outcome {
    Completed, ///< ran through the engine; `engine` is filled
    Degraded,  ///< ran with the cheaper degraded engine config after
               ///< waiting past the overload threshold; `engine` is
               ///< filled (bit-exact vs a standalone run of the
               ///< degraded spec) and `degradeKeepFrac` < 1
    Shed,      ///< refused at admission (queue full); never silent —
               ///< the future still resolves, with this outcome
    TimedOut,  ///< deadline expired before the work finished; any
               ///< in-flight engine work was cancelled cooperatively
    Failed,    ///< every retry attempt failed; `error` holds the
               ///< last failure message
};

/** Stable lower-case name of an outcome ("completed", ...). */
const char *outcomeName(Outcome o);

/** Per-request outcome: engine results + latency breakdown. */
struct RequestResult
{
    std::uint64_t id = 0;
    Outcome outcome = Outcome::Completed;
    RequestKind kind = RequestKind::Prefill;

    /** The request's own aggregate (empty when shed). Bit-exact vs a
     * standalone Engine::run of the same spec, whatever the request
     * was co-scheduled with. */
    EngineResult engine;

    double queueSeconds = 0.0;   ///< submit -> batch dispatch
    double serviceSeconds = 0.0; ///< dispatch -> completion
    double totalSeconds = 0.0;   ///< queueSeconds + serviceSeconds
    /** Head tasks in the engine run that served this request
     * (including its own) — the co-scheduling footprint. */
    int coscheduledHeads = 0;

    /** Engine runs this request consumed (1 on the fault-free path;
     * 0 when shed or timed out before any dispatch). */
    int attempts = 0;
    /** Seconds left on the deadline when the result resolved:
     * negative when the deadline was missed, +infinity when the
     * request had no deadline. */
    double deadlineSlackSeconds =
        std::numeric_limits<double>::infinity();
    /** Fraction of the configured SADS keep span this request ran
     * with: 1.0 normally, `degradeKeepFactor` when Degraded. */
    double degradeKeepFrac = 1.0;
    /** A decode step that ran with an evicted KV reservation: its
     * effective pastLen was 0 and the regeneration cost is in the
     * engine op counters (serve/kvpool recompute accounting). */
    bool kvCold = false;
    /** Engine dispatches this prefill was split into by prefill
     * chunking (1 = unchunked). */
    int chunks = 1;
    /** Index of the fleet backend this request was placed on (also
     * set when the shard then shed it) — the routing decision the
     * determinism property replays; 0 on the default single-backend
     * scheduler. */
    int backend = 0;
    /** Last failure message (Outcome::Failed only). */
    std::string error;
};

/**
 * A trace of @p n requests for one serving scenario: workload specs
 * from scenarioWorkloadSpec (shape caps as there), arrival offsets
 * from arrivalTimes(pattern, n, mean_gap, seed), and a decorrelated
 * per-request seed derived from @p seed, so any request regenerates
 * bit-identically on its own.
 */
std::vector<Request> scenarioTrace(const ServingScenario &s, int n,
                                   ArrivalPattern pattern,
                                   double mean_gap,
                                   std::uint64_t seed,
                                   int max_context = 256,
                                   int max_batch = 1,
                                   int max_heads = 4);

/**
 * A mixed trace cycling round-robin over @p scenarios (prefill and
 * decode kinds interleave in arrival order) — the continuous-
 * batching workload the scheduler is built for.
 */
std::vector<Request> mixedTrace(
    const std::vector<ServingScenario> &scenarios, int n,
    ArrivalPattern pattern, double mean_gap, std::uint64_t seed,
    int max_context = 256, int max_batch = 1, int max_heads = 4);

/**
 * A mixed trace spread across @p tenants fairness domains: the
 * scenario cycle of mixedTrace plus a deterministic per-request
 * tenant draw (splitmix hash of the trace seed and request index,
 * decorrelated from the scenario cycle so no tenant sees only one
 * request kind). The workload the DRR policy balances.
 */
std::vector<Request> multiTenantTrace(
    const std::vector<ServingScenario> &scenarios, int tenants,
    int n, ArrivalPattern pattern, double mean_gap,
    std::uint64_t seed, int max_context = 256, int max_batch = 1,
    int max_heads = 4);

} // namespace serve
} // namespace sofa

#endif // SOFA_SERVE_REQUEST_H
