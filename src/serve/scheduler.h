/**
 * @file
 * Asynchronous request scheduler over the stage-structured engine
 * (core/engine): many ModelWorkload requests — prefill and KV-cache
 * decode, mixed — run through one engine concurrently. The pipeline
 * is admission (bounded queue, explicit shedding) -> continuous
 * batch formation (front-contiguous requests merged up to head-task
 * and context-token budgets) -> lanes (`lanes` threads per shard,
 * each popping its next batch only when it is free, so late arrivals
 * can still join, and stepping that batch's EngineRun stage by
 * stage, so one request's SU-FA overlaps another's SADS on the
 * shared pool).
 *
 * Determinism contract: an identical request trace + seed yields
 * identical per-request *numerical* results (outputs, selections,
 * op counts, quality) at any thread count, lane count, or batch
 * composition — each head task computes independently and the
 * engine is bit-exact, so co-scheduling changes only wall-clock.
 * Shedding is timing-dependent under open-loop overload; construct
 * with `startPaused` and call start() later for deterministic
 * admission experiments.
 *
 * SLO-aware serving (serving v2): batch formation is pluggable
 * through SchedulingPolicy — FIFO (default, bit-compatible with the
 * original scheduler), earliest-deadline-first over the per-request
 * deadline, and deficit-round-robin fairness across Request.tenant.
 * Long prefills can be chunked (`prefillChunkRows`) so decode
 * batches preempt between query-row chunks, and decode `pastLen` is
 * backed by the bounded paged KV pool (serve/kvpool): admission
 * reserves pages, overflow evicts idle requests LRU-first, and an
 * evicted request's next decode step runs cold — the recompute cost
 * is charged through the engine's exact keysCached/kvGenerationOps
 * counters, so pool-on vs pool-off op totals reconcile exactly.
 *
 * Multi-backend fleet (serving v3): the lanes sit behind a fleet of
 * executor Backends (serve/backend) — in-process EngineBackends,
 * each on its own thread pool or a shared one, serving prefill,
 * decode or both. Each backend gets a shard: its own admission
 * queue, KV pool (decode-capable backends only — the "KV-cache-warm"
 * class) and lane threads. Requests are placed on a
 * shard at admission by the RoutingPolicy (round-robin default — one
 * implicit EngineBackend reproduces the single-engine scheduler
 * bit-exactly — least-queue-depth, or prefill/decode
 * disaggregation). Every backend executes identical per-task
 * numerics, so the bit-exactness contract holds for any fleet;
 * RequestResult.backend records the placement for the
 * routing-determinism property tests.
 *
 * Fault tolerance (the robustness layer): per-request deadlines
 * cancel expired work cooperatively at EngineRun stage boundaries
 * (Outcome::TimedOut), failed engine runs are retried solo with
 * bounded exponential backoff + deterministic jitter
 * (Outcome::Failed only after the budget of failed runs), and
 * requests queued past `degradeAfterSeconds` run on a cheaper engine
 * config — reduced SADS keep span — instead of waiting for full
 * service (Outcome::Degraded). Every failure path is reproducible through
 * the seeded common/faultplan injection hooks probed at each stage
 * boundary; see docs/SERVING.md for the fault model.
 *
 * Units: latencies in seconds (steady clock); budgets in head tasks
 * and context tokens; results carry OpCounter ops (core/pipeline.h).
 */

#ifndef SOFA_SERVE_SCHEDULER_H
#define SOFA_SERVE_SCHEDULER_H

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/faultplan.h"
#include "core/engine.h"
#include "serve/backend.h"
#include "serve/kvpool.h"
#include "serve/request.h"
#include "serve/request_queue.h"

namespace sofa {
namespace serve {

/**
 * Bounded-retry policy for transiently-failed engine runs. The
 * backoff before the retry that follows N failed runs (N >= 1) is
 * baseSeconds * 2^(N-1), capped at maxSeconds, scaled by a
 * deterministic jitter factor in [1 - jitterFrac, 1 + jitterFrac)
 * hashed from (seed, request id, N) — no RNG stream, so the
 * schedule replays bit-identically (see retryBackoffSeconds).
 */
struct RetryPolicy
{
    /** Failed engine runs per request before Outcome::Failed (the
     * first try included). Only failed runs count: the successful
     * chunk runs of a chunked prefill spend none of the budget,
     * although RequestResult.attempts counts them. */
    int maxAttempts = 3;
    /** Backoff before the first retry, in seconds. */
    double baseSeconds = 1e-3;
    /** Upper bound on any single backoff, in seconds. */
    double maxSeconds = 0.1;
    /** Jitter half-width as a fraction of the backoff. */
    double jitterFrac = 0.25;
    /** Salt of the jitter hash. */
    std::uint64_t seed = 0;
};

/** Scheduler tuning knobs (documented in docs/SERVING.md). */
struct SchedulerConfig
{
    /** Engine hyperparameters, rowTile and pool (core/engine.h). */
    EngineConfig engine;
    /** Lane threads per shard (at least 1): each pops a batch when
     * it is free and runs it, so this bounds a shard's concurrent
     * engine runs. */
    int lanes = 2;
    /** Max head tasks merged into one engine run. */
    std::int64_t headBudget = 16;
    /** Max context tokens merged into one engine run. */
    std::int64_t tokenBudget = 1 << 20;
    /** Admission capacity: waiting requests beyond this are shed
     * (resolved immediately with Outcome::Shed). Deliberately
     * overbooks lanes*headBudget — queue depth absorbs bursts. */
    std::size_t maxQueue = 256;
    /** Batch-formation order: FIFO (default, bit-compatible with
     * the single-policy scheduler), EDF over the per-request
     * deadline, or DRR fairness across Request.tenant (see
     * serve/request_queue.h for the exact semantics). */
    SchedulingPolicy policy = SchedulingPolicy::FIFO;
    /** DRR credit earned per tenant visit, in head tasks. */
    std::int64_t drrQuantumHeads = 8;
    /**
     * Decode-latency SLO lever: a prefill with more query rows than
     * this runs one row-chunk per dispatch and re-enqueues its
     * continuation, so decode batches preempt between chunks. Each
     * chunk is bit-exact vs a standalone engine run of the same
     * row-sliced workload (sliceQueryRows) and the whole schedule is
     * deterministic; relative to the *unchunked* run, the DLZS
     * predictor quantizes Q per chunk, so selections can move at the
     * approximation margin, and op counters pay the repeated K-hat
     * prediction — both documented chunk overheads. 0 disables
     * chunking (the default).
     */
    int prefillChunkRows = 0;
    /** Bounded paged KV-cache pool backing decode pastLen
     * (serve/kvpool.h); kvPool.pages == 0 disables it (pastLen
     * stays a free resource, today's behaviour). */
    KvPoolConfig kvPool;
    /** Admit but do not dispatch until start() — deterministic
     * admission/shedding experiments and maximal first batches. */
    bool startPaused = false;
    /** Deadline for requests that don't set their own, in seconds
     * from submit(); 0 = no deadline (the default). */
    double defaultDeadlineSeconds = 0.0;
    /** Bounded retry with exponential backoff for failed runs. */
    RetryPolicy retry;
    /** Graceful degradation: a request whose queue delay exceeds
     * this many seconds runs on the degraded engine (reduced SADS
     * keep span, solo) and resolves Outcome::Degraded instead of
     * waiting for full service; 0 disables (the default). */
    double degradeAfterSeconds = 0.0;
    /** Factor applied to pipeline.topkFrac for the degraded engine
     * (in (0, 1]; see degradedEngineConfig). */
    double degradeKeepFactor = 0.5;
    /** Fault-injection plan driving deterministic failure/slowdown
     * tests and benches; empty = no injection. */
    FaultPlan faults;
    /** When `faults` is empty, also consult the SOFA_FAULTS
     * environment variable (FaultPlan::fromEnv). Benches that gate
     * outcome counts set this false to stay hermetic. */
    bool faultsFromEnv = true;
    /**
     * The executor fleet (serve/backend). Empty (the default): one
     * implicit EngineBackend over `engine` with no owned pool —
     * bit-compatible with the single-engine scheduler. Each backend
     * becomes a shard with its own queue, lanes and (when the
     * backend supports decode) KV pool sized from `kvPool`.
     */
    std::vector<std::shared_ptr<Backend>> backends;
    /** Fleet placement policy (serve/backend.h routeRequest): with
     * a single backend every policy degenerates to shard 0. */
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
};

/**
 * The deterministic backoff before the retry that follows @p attempt
 * failed runs (<= 0 returns 0). Pure function of (policy, request,
 * attempt).
 */
double retryBackoffSeconds(const RetryPolicy &policy,
                           std::uint64_t request, int attempt);

/**
 * Row-slice one head's workload to query rows [r0, r1): Q and the
 * per-row annotations are sliced, the shared context (tokens,
 * projections, exact K/V) is carried whole, and the slice's
 * exactScores are the matching rows of the full workload's.
 * This is the exact slicing prefill chunking dispatches — exposed so
 * tests can reproduce a chunk's standalone reference run.
 */
AttentionWorkload sliceQueryRows(const AttentionWorkload &w, int r0,
                                 int r1);

/**
 * The engine configuration degraded requests run with: the base
 * engine config with pipeline.topkFrac scaled by degradeKeepFactor
 * (clamped to [1e-3, 1]) — the SOFA-native quality/latency lever:
 * a smaller SADS keep span means fewer selected keys, less on-demand
 * KV generation and less SU-FA formal compute.
 */
EngineConfig degradedEngineConfig(const SchedulerConfig &cfg);

/** Counter snapshot (monotonic over the scheduler's lifetime). */
struct SchedulerStats
{
    std::int64_t submitted = 0; ///< submit() calls
    std::int64_t admitted = 0;  ///< accepted into the queue
    std::int64_t shed = 0;      ///< refused at admission
    std::int64_t completed = 0; ///< futures resolved Completed
    std::int64_t timedOut = 0;  ///< futures resolved TimedOut
    std::int64_t failed = 0;    ///< futures resolved Failed
    std::int64_t degraded = 0;  ///< futures resolved Degraded
    std::int64_t retried = 0;   ///< re-run attempts started
    std::int64_t batches = 0;   ///< merged engine runs formed
    std::int64_t headTasks = 0; ///< head tasks of finished runs
    std::int64_t maxQueueDepth = 0; ///< waiting-depth high water
    std::int64_t kvEvictions = 0; ///< KV pool pages-holder evictions
    std::int64_t kvColdRuns = 0;  ///< decode runs that paid recompute
    std::int64_t chunkRuns = 0;   ///< chunk dispatches of split prefills
    /** Mean completed requests per formed batch (continuous-
     * batching effectiveness; 0 before the first batch). */
    double meanBatchRequests = 0.0;
};

/** Per-backend shard counters (Scheduler::backendStats). */
struct BackendStats
{
    std::string name;            ///< Backend::name()
    std::int64_t routed = 0;     ///< placement decisions (pre-shed)
    std::int64_t batches = 0;    ///< runs formed on this shard
    std::int64_t headTasks = 0;  ///< head tasks of finished runs
    std::int64_t completedRuns = 0; ///< backend-reported completions
    int queueDepth = 0;          ///< runs in flight right now
    std::int64_t kvEvictions = 0; ///< shard pool evictions
};

class Scheduler
{
  public:
    /** Throws std::invalid_argument when a rule of `cfg.faults` names
     * no engine stage; such a SOFA_FAULTS rule is fatal. */
    explicit Scheduler(SchedulerConfig cfg = {});
    /** Closes admission, drains every admitted request, joins. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    const SchedulerConfig &config() const { return cfg_; }

    /** The paged KV pool backing decode pastLen on shard
     * @p backend — read-only introspection for the page-conservation
     * invariants the trace bench and tests gate
     * (freePages/residentPages/pinnedPages). The no-argument form is
     * shard 0, the whole pool of the default single-backend fleet. */
    const KvPool &kvPool(std::size_t backend = 0) const;

    /** Number of shards (>= 1; 1 on the default fleet). */
    std::size_t fleetSize() const;
    /** The backend serving shard @p i. */
    const Backend &backend(std::size_t i) const;

    /**
     * Submit one request. The returned future always resolves with
     * a RequestResult — never an exception: Outcome::Completed (or
     * Degraded) with the engine results, Outcome::Shed when
     * admission refuses it, Outcome::TimedOut when the deadline
     * expires first, or Outcome::Failed (with `error` filled) once
     * the retry budget is exhausted.
     */
    std::future<RequestResult> submit(Request r);

    /** Begin dispatching (needed after startPaused; idempotent). */
    void start();

    /** Block until every admitted request has completed. Implies
     * start() — a paused scheduler would never drain. */
    void drain();

    SchedulerStats stats() const;

    /** Per-shard counters, fleet order (routing/conformance tests
     * and bench_backends' placement table). */
    std::vector<BackendStats> backendStats() const;

  private:
    struct Slot;  // per-request in-flight state (scheduler.cc)
    struct Shard; // per-backend queue/lanes/pool (scheduler.cc)
    /** The three ways an engine run serves its slots: a merged batch
     * (prefills past prefillChunkRows run their next chunk), a solo
     * retry, or a solo run on the degraded engine. */
    enum class RunKind { Merged, Solo, Degraded };

    int routeLocked(const Request &r); // under m_
    void laneLoop(Shard &shard);
    void stopLanes();
    /** Serve one popped batch. Every failure resolves a future, so
     * nothing is left to throw at the lane. */
    void runBatch(Shard &shard,
                  std::vector<PendingRequest> batch) noexcept;
    bool runSlots(Shard &shard, const std::vector<Slot *> &slots,
                  RunKind kind, std::string *error);
    ModelWorkload nextChunk(Slot &slot) const;
    bool stepWithFaults(BackendRun &run,
                        const std::vector<Slot *> &slots);
    void settleSlots(Shard &shard, const std::vector<Slot *> &slots,
                     RunKind kind, bool ran, EngineResult &res,
                     int coscheduled);
    void bankChunk(Shard &shard, Slot &slot, int coscheduled);
    void runSoloWithRetry(Shard &shard, Slot &slot, RunKind kind,
                          std::string last_error);
    void resolveSlot(Shard &shard, Slot &slot, Outcome outcome,
                     EngineResult engine, double keep_frac,
                     int coscheduled, std::string error);
    void preparePoolPin(Shard &shard, Slot &slot);
    void finishBatch(Shard &shard, std::vector<Slot> &slots,
                     const std::string &failure);
    double keepFracOf(RunKind kind) const;

    SchedulerConfig cfg_;
    FaultPlan faults_; ///< cfg_.faults, else SOFA_FAULTS
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex m_;
    std::condition_variable cv_;
    bool started_ = false;
    std::uint64_t rrCounter_ = 0;  ///< round-robin admission index
    std::int64_t outstanding_ = 0; ///< admitted, not yet completed
    std::int64_t submitted_ = 0;
    std::int64_t shed_ = 0;
    std::int64_t completed_ = 0;
    std::int64_t timedOut_ = 0;
    std::int64_t failed_ = 0;
    std::int64_t degraded_ = 0;
    std::int64_t retried_ = 0;
    std::int64_t batches_ = 0;
    std::int64_t headTasks_ = 0;
    std::int64_t kvColdRuns_ = 0;
    std::int64_t chunkRuns_ = 0;
};

/**
 * Closed-loop driver: submit the trace in order keeping at most
 * @p window requests outstanding (offered load = window), collect
 * results in trace order. `window` is the offered-load axis of
 * bench_serve's sweep.
 */
std::vector<RequestResult> runClosedLoop(
    Scheduler &sched, const std::vector<Request> &trace, int window);

/**
 * Open-loop replay: submit each request when its scaled arrival
 * offset elapses (time_scale 0 submits the whole trace at once).
 * Returns results in trace order after draining.
 */
std::vector<RequestResult> replayTrace(
    Scheduler &sched, const std::vector<Request> &trace,
    double time_scale = 1.0);

} // namespace serve
} // namespace sofa

#endif // SOFA_SERVE_SCHEDULER_H
