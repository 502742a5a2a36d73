#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.h"

namespace sofa {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** The effective deadline length of a request; 0 = none. */
double
deadlineSecondsOf(const Request &r, const SchedulerConfig &cfg)
{
    if (r.deadlineSeconds > 0.0)
        return r.deadlineSeconds;
    if (r.deadlineSeconds < 0.0)
        return 0.0; // explicitly opted out
    return cfg.defaultDeadlineSeconds > 0.0
               ? cfg.defaultDeadlineSeconds
               : 0.0;
}

/** Append @p mw's grid as request-local HeadTasks (so the
 * per-request split reproduces a standalone run). A cold KV run —
 * the request's pool reservation was evicted while it waited —
 * drops the cache claim: the engine then regenerates every required
 * key and the recompute cost lands on the exact op counters. */
void
appendHeadTasks(const ModelWorkload &mw, bool kv_cold,
                std::vector<HeadTask> *out)
{
    for (int b = 0; b < mw.batch(); ++b) {
        for (int h = 0; h < mw.heads(); ++h) {
            HeadTask t;
            t.workload = &mw.head(b, h);
            t.batch = b;
            t.head = h;
            t.pastLen = (mw.spec.isDecode() && !kv_cold)
                            ? mw.spec.pastLen
                            : 0;
            out->push_back(t);
        }
    }
}

/** Throw std::invalid_argument when a rule of @p plan names a stage
 * the engine does not have: such a rule could never fire. */
void
checkFaultStages(const FaultPlan &plan)
{
    const std::vector<std::string> names = Engine::stageNames();
    for (const FaultRule &rule : plan.rules()) {
        if (rule.stage.empty() ||
            std::find(names.begin(), names.end(), rule.stage) !=
                names.end())
            continue;
        std::string known;
        for (const std::string &n : names)
            known += (known.empty() ? "" : ", ") + n;
        throw std::invalid_argument("no engine stage named '" +
                                    rule.stage + "' (stages: " +
                                    known + ")");
    }
}

/** The plan a scheduler injects: `cfg.faults`, else SOFA_FAULTS when
 * `cfg.faultsFromEnv`. An unknown stage name is rejected like any
 * other malformed plan: an exception for a configured plan, fatal()
 * naming the variable for an environment one. */
FaultPlan
faultPlanOf(const SchedulerConfig &cfg)
{
    if (!cfg.faults.empty()) {
        checkFaultStages(cfg.faults);
        return cfg.faults;
    }
    if (!cfg.faultsFromEnv)
        return FaultPlan{};
    const char *var = "SOFA_FAULTS";
    FaultPlan plan = FaultPlan::fromEnv(var);
    try {
        checkFaultStages(plan);
    } catch (const std::invalid_argument &e) {
        fatal("%s: %s", var, e.what());
    }
    return plan;
}

} // namespace

AttentionWorkload
sliceQueryRows(const AttentionWorkload &w, int r0, int r1)
{
    AttentionWorkload s;
    s.spec = w.spec;
    s.spec.queries = r1 - r0;
    s.tokens = w.tokens;
    s.wk = w.wk;
    s.wv = w.wv;
    s.k = w.k;
    s.v = w.v;
    s.q = MatF(static_cast<std::size_t>(r1 - r0), w.q.cols());
    for (int r = r0; r < r1; ++r)
        std::copy(w.q.rowPtr(static_cast<std::size_t>(r)),
                  w.q.rowPtr(static_cast<std::size_t>(r)) +
                      w.q.cols(),
                  s.q.rowPtr(static_cast<std::size_t>(r - r0)));
    s.dominants.assign(w.dominants.begin() + r0,
                       w.dominants.begin() + r1);
    s.rowTypes.assign(w.rowTypes.begin() + r0,
                      w.rowTypes.begin() + r1);
    return s;
}

namespace {

void
sleepSeconds(double s)
{
    if (s > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/** The query row a chunked prefill's next chunk ends at. */
int
chunkEnd(const ChunkState &cs, int chunk_rows)
{
    return std::min(cs.work.spec.queryRows(), cs.rowsDone + chunk_rows);
}

} // namespace

double
retryBackoffSeconds(const RetryPolicy &policy, std::uint64_t request,
                    int attempt)
{
    if (attempt <= 0)
        return 0.0;
    double backoff =
        policy.baseSeconds * std::pow(2.0, attempt - 1);
    if (policy.maxSeconds > 0.0)
        backoff = std::min(backoff, policy.maxSeconds);
    // Deterministic jitter in [1 - jitterFrac, 1 + jitterFrac):
    // hashed per (request, attempt), never a shared RNG stream.
    const double u = hashUnitInterval(
        policy.seed, request, static_cast<std::uint64_t>(attempt));
    const double jitter = 1.0 + policy.jitterFrac * (2.0 * u - 1.0);
    return std::max(0.0, backoff * jitter);
}

EngineConfig
degradedEngineConfig(const SchedulerConfig &cfg)
{
    // The same keep-span scaling every backend applies in begin();
    // keeping them one function is what makes scheduler-degraded
    // runs bit-exact vs a standalone run of the degraded spec.
    return scaledKeepConfig(cfg.engine, cfg.degradeKeepFactor);
}

/** Per-request in-flight state while its batch is being served.
 * Deadline state lives on the PendingRequest (resolved at submit,
 * where EDF also reads it). */
struct Scheduler::Slot
{
    PendingRequest p;
    Clock::time_point t0{};      ///< batch dispatch time
    /** The slot's task indices in the current BackendRun. */
    std::vector<std::size_t> taskIdx;
    int attempts = 0;     ///< engine runs consumed so far
    int failures = 0;     ///< engine runs that failed (retry budget)
    bool timedOut = false; ///< deadline expired during the run
    bool resolved = false; ///< promise satisfied
    bool readmitted = false; ///< chunk continuation re-enqueued
    bool kvCold = false;  ///< KV reservation lost; runs pastLen 0
    int chunksDone = 1;   ///< chunk dispatches (1 = unchunked)
};

/** One fleet shard: a backend with its own admission queue, lane
 * threads and (decode-capable backends only) KV pool. Counters are
 * guarded by Scheduler::m_. */
struct Scheduler::Shard
{
    std::shared_ptr<Backend> backend;
    BackendCapabilities caps;
    std::unique_ptr<KvPool> pool;
    std::unique_ptr<RequestQueue> queue;
    std::int64_t routed = 0;    ///< placement decisions
    std::int64_t batches = 0;   ///< runs formed on this shard
    std::int64_t headTasks = 0; ///< head tasks of finished runs
    std::vector<std::thread> lanes; ///< each runs laneLoop
};

Scheduler::Scheduler(SchedulerConfig cfg)
    : cfg_(std::move(cfg)),
      faults_(faultPlanOf(cfg_)),
      started_(!cfg_.startPaused)
{
    SOFA_ASSERT(cfg_.headBudget >= 1);
    SOFA_ASSERT(cfg_.tokenBudget >= 1);
    SOFA_ASSERT(cfg_.retry.maxAttempts >= 1);
    SOFA_ASSERT(cfg_.degradeKeepFactor > 0.0 &&
                cfg_.degradeKeepFactor <= 1.0);
    SOFA_ASSERT(cfg_.drrQuantumHeads >= 1);
    SOFA_ASSERT(cfg_.prefillChunkRows >= 0);
    std::vector<std::shared_ptr<Backend>> fleet = cfg_.backends;
    if (fleet.empty()) {
        // The implicit fleet: one in-process engine with no owned
        // pool — exactly the single-engine scheduler's executor.
        EngineBackendConfig ec;
        ec.engine = cfg_.engine;
        fleet.push_back(
            std::make_shared<EngineBackend>(std::move(ec)));
    }
    shards_.reserve(fleet.size());
    for (const std::shared_ptr<Backend> &backend : fleet) {
        auto sh = std::make_unique<Shard>();
        sh->backend = backend;
        sh->caps = backend->capabilities();
        // KV pools live on the decode-capable ("KV-cache-warm")
        // shards; prefill-only backends run pool-less (their
        // requests never carry a cached pastLen).
        sh->pool = std::make_unique<KvPool>(
            sh->caps.supportsDecode ? cfg_.kvPool : KvPoolConfig{});
        sh->queue = std::make_unique<RequestQueue>(
            cfg_.maxQueue, cfg_.policy, cfg_.drrQuantumHeads,
            cfg_.prefillChunkRows);
        shards_.push_back(std::move(sh));
    }
    try {
        for (auto &sh : shards_)
            for (int l = 0; l < std::max(1, cfg_.lanes); ++l)
                sh->lanes.emplace_back(
                    [this, s = sh.get()] { laneLoop(*s); });
    } catch (...) {
        stopLanes(); // a lane that started must not outlive *this
        throw;
    }
}

Scheduler::~Scheduler()
{
    stopLanes();
}

void
Scheduler::stopLanes()
{
    start();
    for (auto &sh : shards_)
        sh->queue->close();
    // Each lane drains its queue before it returns.
    for (auto &sh : shards_)
        for (std::thread &lane : sh->lanes)
            lane.join();
}

const KvPool &
Scheduler::kvPool(std::size_t backend) const
{
    SOFA_ASSERT(backend < shards_.size());
    return *shards_[backend]->pool;
}

std::size_t
Scheduler::fleetSize() const
{
    return shards_.size();
}

const Backend &
Scheduler::backend(std::size_t i) const
{
    SOFA_ASSERT(i < shards_.size());
    return *shards_[i]->backend;
}

int
Scheduler::routeLocked(const Request &r)
{
    if (shards_.size() == 1)
        return 0;
    std::vector<BackendCapabilities> caps;
    std::vector<std::int64_t> depths;
    caps.reserve(shards_.size());
    depths.reserve(shards_.size());
    for (const auto &sh : shards_) {
        caps.push_back(sh->caps);
        // Load signal: requests waiting on the shard plus runs in
        // flight on its backend. Deterministic whenever admission
        // is (startPaused keeps both terms replayable).
        depths.push_back(
            static_cast<std::int64_t>(sh->queue->size()) +
            sh->backend->queueDepth());
    }
    return routeRequest(cfg_.routing, r.kind(), caps, depths,
                        rrCounter_++);
}

std::future<RequestResult>
Scheduler::submit(Request r)
{
    PendingRequest p;
    p.request = std::move(r);
    p.submitted = Clock::now();
    // Resolve the absolute deadline here, where EDF needs it as the
    // queue's sort key; the lanes enforce the same value.
    const double dl = deadlineSecondsOf(p.request, cfg_);
    if (dl > 0.0) {
        p.hasDeadline = true;
        p.deadline =
            p.submitted +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(dl));
    }
    std::future<RequestResult> fut = p.promise.get_future();
    int shard_idx = 0;
    {
        // Count the request as outstanding *before* it becomes
        // visible in the queue: a concurrent drain() must never see
        // outstanding_ == 0 while an admitted request is queued.
        // Routing happens here too — placement is an admission-time
        // decision, so a replay with identical admission order
        // reproduces identical placements.
        std::lock_guard<std::mutex> lk(m_);
        ++submitted_;
        ++outstanding_;
        shard_idx = routeLocked(p.request);
        ++shards_[static_cast<std::size_t>(shard_idx)]->routed;
    }
    Shard &sh = *shards_[static_cast<std::size_t>(shard_idx)];
    p.backend = shard_idx;
    // KV-pool admission on the routed shard: reserve pages for the
    // request's context rows (evicting idle residents LRU-first). A
    // request whose demand cannot be reserved even by evicting is
    // shed — the pool is the second admission gate next to queue
    // capacity. Requires ids unique over the scheduler's lifetime
    // (traces guarantee this) so reservations never alias.
    bool admitted = true;
    if (sh.pool->enabled())
        admitted =
            sh.pool
                ->acquire(p.request.id, p.request.contextTokens())
                .ok;
    if (admitted && !sh.queue->push(std::move(p))) {
        admitted = false;
        sh.pool->release(p.request.id); // undo the page reservation
    }
    if (!admitted) {
        // Admission overload: shed explicitly. The future resolves
        // right here with Outcome::Shed — the caller always observes
        // what happened (push left `p` intact on refusal).
        {
            std::lock_guard<std::mutex> lk(m_);
            ++shed_;
            --outstanding_;
        }
        cv_.notify_all();
        RequestResult rr;
        rr.id = p.request.id;
        rr.kind = p.request.kind();
        rr.outcome = Outcome::Shed;
        rr.backend = shard_idx;
        p.promise.set_value(std::move(rr));
        return fut;
    }
    cv_.notify_all();
    return fut;
}

void
Scheduler::start()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        started_ = true;
    }
    cv_.notify_all();
}

void
Scheduler::drain()
{
    start();
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return outstanding_ == 0; });
}

SchedulerStats
Scheduler::stats() const
{
    SchedulerStats s;
    {
        std::lock_guard<std::mutex> lk(m_);
        s.submitted = submitted_;
        s.shed = shed_;
        s.completed = completed_;
        s.timedOut = timedOut_;
        s.failed = failed_;
        s.degraded = degraded_;
        s.retried = retried_;
        s.batches = batches_;
        s.headTasks = headTasks_;
        s.kvColdRuns = kvColdRuns_;
        s.chunkRuns = chunkRuns_;
    }
    for (const auto &sh : shards_) {
        s.kvEvictions += sh->pool->evictions();
        s.maxQueueDepth = std::max(
            s.maxQueueDepth,
            static_cast<std::int64_t>(sh->queue->maxDepth()));
    }
    s.admitted = s.submitted - s.shed;
    if (s.batches > 0)
        s.meanBatchRequests = static_cast<double>(s.completed) /
                              static_cast<double>(s.batches);
    return s;
}

std::vector<BackendStats>
Scheduler::backendStats() const
{
    std::vector<BackendStats> out;
    out.reserve(shards_.size());
    std::lock_guard<std::mutex> lk(m_);
    for (const auto &sh : shards_) {
        BackendStats b;
        b.name = sh->backend->name();
        b.routed = sh->routed;
        b.batches = sh->batches;
        b.headTasks = sh->headTasks;
        b.completedRuns = sh->backend->completedRuns();
        b.queueDepth = sh->backend->queueDepth();
        b.kvEvictions = sh->pool->evictions();
        out.push_back(std::move(b));
    }
    return out;
}

void
Scheduler::laneLoop(Shard &shard)
{
    {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] { return started_; });
    }
    // The lane forms its next batch only once it is free (continuous
    // batching: every request that arrived while the shard's lanes
    // were busy merges into that batch). The closed queue returns an
    // empty batch once every admitted request has resolved.
    for (;;) {
        std::vector<PendingRequest> batch =
            shard.queue->popBatch(cfg_.headBudget,
                                  cfg_.tokenBudget);
        if (batch.empty())
            return;
        {
            std::lock_guard<std::mutex> lk(m_);
            ++batches_;
            ++shard.batches;
        }
        runBatch(shard, std::move(batch));
    }
}

void
Scheduler::resolveSlot(Shard &shard, Slot &slot, Outcome outcome,
                       EngineResult engine, double keep_frac,
                       int coscheduled, std::string error)
{
    SOFA_ASSERT(!slot.resolved);
    const Clock::time_point now = Clock::now();
    RequestResult rr;
    rr.id = slot.p.request.id;
    rr.kind = slot.p.request.kind();
    rr.outcome = outcome;
    rr.engine = std::move(engine);
    rr.queueSeconds = seconds(slot.p.submitted, slot.t0);
    rr.serviceSeconds = seconds(slot.t0, now);
    rr.totalSeconds = rr.queueSeconds + rr.serviceSeconds;
    rr.coscheduledHeads = coscheduled;
    rr.attempts = slot.attempts;
    if (slot.p.hasDeadline)
        rr.deadlineSlackSeconds = seconds(now, slot.p.deadline);
    rr.degradeKeepFrac = keep_frac;
    rr.kvCold = slot.kvCold;
    rr.chunks = slot.chunksDone;
    rr.backend = slot.p.backend;
    rr.error = std::move(error);
    // KV-pool bookkeeping: finished requests stay resident as idle
    // reusable cache (LRU-evictable under pressure); abandoned ones
    // free their pages immediately.
    if (shard.pool->enabled()) {
        if (outcome == Outcome::Completed ||
            outcome == Outcome::Degraded)
            shard.pool->retire(rr.id);
        else
            shard.pool->release(rr.id);
    }
    {
        std::lock_guard<std::mutex> lk(m_);
        switch (outcome) {
          case Outcome::Completed:
            ++completed_;
            break;
          case Outcome::Degraded:
            ++degraded_;
            break;
          case Outcome::TimedOut:
            ++timedOut_;
            break;
          case Outcome::Failed:
            ++failed_;
            break;
          case Outcome::Shed:
            break; // resolved in submit(), never here
        }
    }
    slot.resolved = true;
    slot.p.promise.set_value(std::move(rr));
}

bool
Scheduler::stepWithFaults(BackendRun &run,
                          const std::vector<Slot *> &slots)
{
    while (!run.done()) {
        const char *stage = run.nextStageName();
        bool any_live = false;
        for (Slot *s : slots) {
            if (s->timedOut)
                continue;
            const FaultDecision d =
                faults_.at(s->p.request.id, stage, s->attempts);
            if (d.action == FaultAction::Slow)
                sleepSeconds(d.slowMs * 1e-3);
            if (s->p.hasDeadline && Clock::now() >= s->p.deadline) {
                // Deadline expired mid-pipeline: cancel the slot's
                // tasks so the remaining stages skip them — the
                // run keeps the lane only for still-live requests.
                // Timeout takes precedence over an injected failure
                // at the same boundary.
                for (std::size_t t : s->taskIdx)
                    run.cancel(t);
                s->timedOut = true;
                continue;
            }
            if (d.action == FaultAction::Fail)
                throw InjectedFault(
                    "injected fault: req=" +
                    std::to_string(s->p.request.id) + " stage=" +
                    (stage != nullptr ? stage : "?") + " attempt=" +
                    std::to_string(s->attempts));
            any_live = true;
        }
        if (!any_live)
            return false; // everything cancelled; stop stepping
        run.step();
    }
    return true;
}

double
Scheduler::keepFracOf(RunKind kind) const
{
    // The keep-span ratio a run records in degradeKeepFrac.
    return kind == RunKind::Degraded
               ? degradedEngineConfig(cfg_).pipeline.topkFrac /
                     cfg_.engine.pipeline.topkFrac
               : 1.0;
}

ModelWorkload
Scheduler::nextChunk(Slot &slot) const
{
    // The full workload is generated for the first chunk and rides
    // the ChunkState between dispatches.
    if (!slot.p.chunk) {
        slot.p.chunk = std::make_shared<ChunkState>();
        slot.p.chunk->work = generateModelWorkload(slot.p.request.work);
    }
    const ChunkState &cs = *slot.p.chunk;
    // Chunk runs are this request's engine attempts: the fault plan's
    // attempt index advances with them so injections stay
    // per-dispatch.
    slot.attempts = cs.runs;
    const int r1 = chunkEnd(cs, cfg_.prefillChunkRows);
    ModelWorkload rows{cs.work.spec, {}};
    rows.spec.queries = r1 - cs.rowsDone;
    for (const AttentionWorkload &w : cs.work.grid)
        rows.grid.push_back(sliceQueryRows(w, cs.rowsDone, r1));
    return rows;
}

bool
Scheduler::runSlots(Shard &shard, const std::vector<Slot *> &slots,
                    RunKind kind, std::string *error)
{
    // Materialize each request's workload (deterministic in its own
    // seed), then merge every head onto one grid. In a merged run a
    // chunked prefill contributes only its next query-row chunk.
    std::vector<ModelWorkload> works;
    works.reserve(slots.size()); // the tasks point into it
    std::vector<HeadTask> tasks;
    for (Slot *s : slots) {
        const bool chunk =
            kind == RunKind::Merged &&
            prefillChunks(s->p.request, cfg_.prefillChunkRows);
        works.push_back(chunk ? nextChunk(*s)
                              : generateModelWorkload(s->p.request.work));
        const std::size_t first = tasks.size();
        appendHeadTasks(works.back(), s->kvCold, &tasks);
        s->taskIdx.clear();
        for (std::size_t t = first; t < tasks.size(); ++t)
            s->taskIdx.push_back(t);
    }
    const int coscheduled = static_cast<int>(tasks.size());
    try {
        // Each stage is a separate pool epoch, so concurrent lanes
        // interleave between stages; the per-stage seam is also where
        // faults inject and deadlines cancel.
        auto run = shard.backend->begin(
            std::move(tasks),
            kind == RunKind::Degraded ? cfg_.degradeKeepFactor : 1.0);
        const bool ran = stepWithFaults(*run, slots);
        for (Slot *s : slots)
            ++s->attempts;
        EngineResult res;
        if (ran) {
            res = run->finish();
            // Count executed work before any promise resolves, so a
            // caller observing its future sees consistent stats.
            std::lock_guard<std::mutex> lk(m_);
            headTasks_ += coscheduled;
            shard.headTasks += coscheduled;
        }
        settleSlots(shard, slots, kind, ran, res, coscheduled);
        return true;
    } catch (const std::exception &e) {
        // The aborted run was a failed attempt of every slot in it;
        // the caller retries the live ones.
        for (Slot *s : slots) {
            ++s->attempts;
            ++s->failures;
            if (s->timedOut && !s->resolved)
                resolveSlot(shard, *s, Outcome::TimedOut,
                            EngineResult{}, keepFracOf(kind),
                            coscheduled, std::string());
        }
        *error = e.what();
        return false;
    }
}

void
Scheduler::settleSlots(Shard &shard, const std::vector<Slot *> &slots,
                       RunKind kind, bool ran, EngineResult &res,
                       int coscheduled)
{
    const Outcome success = kind == RunKind::Degraded
                                ? Outcome::Degraded
                                : Outcome::Completed;
    for (Slot *s : slots) {
        if (!ran || s->timedOut) {
            // Cancelled mid-run: the partial work, a chunked
            // prefill's banked rows included, is discarded.
            resolveSlot(shard, *s, Outcome::TimedOut, EngineResult{},
                        keepFracOf(kind), coscheduled, std::string());
            continue;
        }
        // Split the co-scheduled heads back per request, in task
        // order, so each aggregate matches a standalone Engine::run;
        // a chunk run appends its heads to the banked ones.
        std::vector<HeadResult> heads;
        std::vector<HeadResult> &into =
            s->p.chunk ? s->p.chunk->heads : heads;
        for (std::size_t t : s->taskIdx)
            into.push_back(std::move(res.heads[t]));
        if (s->p.chunk)
            bankChunk(shard, *s, coscheduled);
        else
            resolveSlot(shard, *s, success,
                        aggregateHeadResults(std::move(heads)),
                        keepFracOf(kind), coscheduled, std::string());
    }
}

void
Scheduler::bankChunk(Shard &shard, Slot &slot, int coscheduled)
{
    ChunkState &cs = *slot.p.chunk;
    cs.rowsDone = chunkEnd(cs, cfg_.prefillChunkRows);
    cs.runs = slot.attempts;
    {
        std::lock_guard<std::mutex> lk(m_);
        ++chunkRuns_;
    }
    if (cs.rowsDone < cs.work.spec.queryRows()) {
        // Re-enqueue the continuation: decode batches preempt before
        // the next chunk.
        shard.pool->unpin(slot.p.request.id);
        slot.readmitted = true;
        shard.queue->pushReadmit(std::move(slot.p));
        return;
    }
    slot.chunksDone = (cs.rowsDone + cfg_.prefillChunkRows - 1) /
                      cfg_.prefillChunkRows;
    resolveSlot(shard, slot, Outcome::Completed,
                aggregateHeadResults(std::move(cs.heads)), 1.0,
                coscheduled, std::string());
}

void
Scheduler::runSoloWithRetry(Shard &shard, Slot &slot, RunKind kind,
                            std::string last_error)
{
    const std::vector<Slot *> solo{&slot};
    // The budget and the backoff count failed runs: the chunk runs a
    // chunked prefill completed before it failed are engine attempts
    // (the fault plan indexes them), not failures.
    while (slot.failures < cfg_.retry.maxAttempts) {
        if (slot.failures > 0) {
            {
                std::lock_guard<std::mutex> lk(m_);
                ++retried_;
            }
            sleepSeconds(retryBackoffSeconds(
                cfg_.retry, slot.p.request.id, slot.failures));
        }
        if (slot.p.hasDeadline && Clock::now() >= slot.p.deadline) {
            resolveSlot(shard, slot, Outcome::TimedOut,
                        EngineResult{}, keepFracOf(kind), 0,
                        std::string());
            return;
        }
        // Solo run of the request's own tasks == a standalone
        // Engine::run of its spec, so the bit-exactness contract
        // holds on the recovery and degraded paths.
        try {
            if (runSlots(shard, solo, kind, &last_error))
                return;
            continue; // runSlots counted the failed run
        } catch (const std::exception &e) {
            last_error = e.what();
        } catch (...) {
            last_error = "unknown engine failure";
        }
        // A failure runSlots let through: workload generation, or an
        // engine exception not derived from std::exception.
        ++slot.attempts;
        ++slot.failures;
    }
    resolveSlot(shard, slot, Outcome::Failed, EngineResult{},
                keepFracOf(kind), 0, std::move(last_error));
}

void
Scheduler::preparePoolPin(Shard &shard, Slot &slot)
{
    if (!shard.pool->enabled())
        return;
    const Request &r = slot.p.request;
    if (shard.pool->pin(r.id))
        return; // reservation survived the wait: warm run
    // The reservation was evicted while the request queued:
    // re-acquire (evicting someone else LRU-first) and run cold. A
    // decode step then claims no cached keys — the engine
    // regenerates all of them and the recompute cost is charged
    // through the exact op counters. If even re-acquiring fails
    // (every page pinned by concurrent runs) the request runs
    // without residency; correctness is unaffected either way.
    shard.pool->acquire(r.id, r.contextTokens(), /*pin_now=*/true);
    if (r.work.isDecode()) {
        slot.kvCold = true;
        std::lock_guard<std::mutex> lk(m_);
        ++kvColdRuns_;
    }
}

void
Scheduler::runBatch(Shard &shard,
                    std::vector<PendingRequest> batch) noexcept
{
    const Clock::time_point t0 = Clock::now();
    std::vector<Slot> slots(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        slots[i].p = std::move(batch[i]);
        slots[i].t0 = t0;
    }
    std::string failure; // caught below; fails every pending slot
    try {
        // Pre-dispatch triage: already-expired deadlines resolve
        // TimedOut without consuming an engine run; requests queued
        // past the overload threshold take the degraded path; the
        // rest merge into one engine run.
        std::vector<Slot *> merged, degraded;
        for (Slot &s : slots) {
            if (s.p.hasDeadline && t0 >= s.p.deadline)
                resolveSlot(shard, s, Outcome::TimedOut,
                            EngineResult{}, 1.0, 0, std::string());
            else if (cfg_.degradeAfterSeconds > 0.0 &&
                     seconds(s.p.submitted, t0) >
                         cfg_.degradeAfterSeconds)
                degraded.push_back(&s);
            else
                merged.push_back(&s);
        }
        // Degraded requests run solo at the cheaper keep factor,
        // first — they have already waited past the overload
        // threshold. Degradation supersedes chunking: a half-chunked
        // prefill that waited this long reruns whole and cheap.
        for (Slot *s : degraded) {
            s->p.chunk.reset();
            preparePoolPin(shard, *s);
            runSoloWithRetry(shard, *s, RunKind::Degraded,
                             std::string());
        }
        for (Slot *s : merged)
            preparePoolPin(shard, *s);
        std::string error;
        if (!merged.empty() &&
            !runSlots(shard, merged, RunKind::Merged, &error)) {
            // Engine failure (injected or real): the merged run is
            // abandoned and every still-live request recovers with
            // solo retries, so one bad request cannot poison its
            // batch neighbours. A chunked prefill reruns whole: its
            // banked rows are discarded with the poisoned run.
            for (Slot *s : merged) {
                if (s->resolved || s->readmitted)
                    continue;
                s->p.chunk.reset();
                runSoloWithRetry(shard, *s, RunKind::Solo, error);
            }
        }
    } catch (const std::exception &e) {
        failure = e.what();
    } catch (...) {
        failure = "unknown scheduler failure";
    }
    finishBatch(shard, slots, failure);
}

void
Scheduler::finishBatch(Shard &shard, std::vector<Slot> &slots,
                       const std::string &failure)
{
    // Readmitted chunk continuations are still outstanding (their
    // promise travels back through the queue). Every other slot
    // resolves here at the latest: one still pending after a failure
    // runBatch caught (e.g. workload generation failed) resolves
    // Failed, so futures never carry exceptions and failures are
    // always accounted.
    std::size_t readmits = 0, chunk_finished = 0;
    for (Slot &s : slots) {
        if (s.readmitted) {
            ++readmits;
            continue;
        }
        if (!s.resolved)
            resolveSlot(shard, s, Outcome::Failed, EngineResult{}, 1.0,
                        0, failure);
        if (prefillChunks(s.p.request, cfg_.prefillChunkRows))
            ++chunk_finished; // popped with a readmit obligation
    }
    {
        std::lock_guard<std::mutex> lk(m_);
        outstanding_ -=
            static_cast<std::int64_t>(slots.size() - readmits);
    }
    shard.queue->finishPopped(chunk_finished);
    cv_.notify_all();
}

std::vector<RequestResult>
runClosedLoop(Scheduler &sched, const std::vector<Request> &trace,
              int window)
{
    window = std::max(1, window);
    std::vector<RequestResult> results(trace.size());
    std::deque<std::pair<std::size_t,
                         std::future<RequestResult>>> inflight;
    std::size_t next = 0;
    while (next < trace.size() || !inflight.empty()) {
        while (next < trace.size() &&
               inflight.size() < static_cast<std::size_t>(window)) {
            inflight.emplace_back(next,
                                  sched.submit(trace[next]));
            ++next;
        }
        auto &[idx, fut] = inflight.front();
        results[idx] = fut.get();
        inflight.pop_front();
    }
    return results;
}

std::vector<RequestResult>
replayTrace(Scheduler &sched, const std::vector<Request> &trace,
            double time_scale)
{
    std::vector<std::future<RequestResult>> futures;
    futures.reserve(trace.size());
    const Clock::time_point start = Clock::now();
    for (const Request &r : trace) {
        if (time_scale > 0.0) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                r.arrival * time_scale));
            std::this_thread::sleep_until(due);
        }
        futures.push_back(sched.submit(r));
    }
    std::vector<RequestResult> results;
    results.reserve(trace.size());
    for (auto &f : futures)
        results.push_back(f.get());
    return results;
}

} // namespace serve
} // namespace sofa
