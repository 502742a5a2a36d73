#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/threadpool.h"

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
    s.scores =
        MatF(static_cast<std::size_t>(r1 - r0), w.scores.cols());
    for (int r = r0; r < r1; ++r) {
        std::copy(w.q.rowPtr(static_cast<std::size_t>(r)),
                  w.q.rowPtr(static_cast<std::size_t>(r)) +
                      w.q.cols(),
                  s.q.rowPtr(static_cast<std::size_t>(r - r0)));
        std::copy(w.scores.rowPtr(static_cast<std::size_t>(r)),
                  w.scores.rowPtr(static_cast<std::size_t>(r)) +
                      w.scores.cols(),
                  s.scores.rowPtr(static_cast<std::size_t>(r - r0)));
    }
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
    bool timedOut = false; ///< deadline expired during the run
    bool resolved = false; ///< promise satisfied
    bool readmitted = false; ///< chunk continuation re-enqueued
    bool kvCold = false;  ///< KV reservation lost; runs pastLen 0
    int chunksDone = 1;   ///< chunk dispatches (1 = unchunked)
};

/** One fleet shard: a backend with its own admission queue, lane
 * TaskQueue, dispatcher thread and (decode-capable backends only)
 * KV pool. Counters are guarded by Scheduler::m_. */
struct Scheduler::Shard
{
    int index = 0;
    std::shared_ptr<Backend> backend;
    BackendCapabilities caps;
    std::unique_ptr<KvPool> pool;
    std::unique_ptr<RequestQueue> queue;
    std::unique_ptr<TaskQueue> lanes;
    int inFlight = 0;           ///< batches dispatched, unfinished
    std::int64_t routed = 0;    ///< placement decisions
    std::int64_t batches = 0;   ///< runs formed on this shard
    std::int64_t headTasks = 0; ///< head tasks of finished runs
    std::thread dispatcher;
};

Scheduler::Scheduler(SchedulerConfig cfg)
    : cfg_(std::move(cfg)),
      faults_(!cfg_.faults.empty()
                  ? cfg_.faults
                  : (cfg_.faultsFromEnv ? FaultPlan::fromEnv()
                                        : FaultPlan{})),
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
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        auto sh = std::make_unique<Shard>();
        sh->index = static_cast<int>(i);
        sh->backend = fleet[i];
        sh->caps = fleet[i]->capabilities();
        // KV pools live on the decode-capable ("KV-cache-warm")
        // shards; prefill-only backends run pool-less (their
        // requests never carry a cached pastLen).
        sh->pool = std::make_unique<KvPool>(
            sh->caps.supportsDecode ? cfg_.kvPool : KvPoolConfig{});
        sh->queue = std::make_unique<RequestQueue>(
            cfg_.maxQueue, cfg_.policy, cfg_.drrQuantumHeads,
            cfg_.prefillChunkRows);
        sh->lanes = std::make_unique<TaskQueue>(cfg_.lanes);
        shards_.push_back(std::move(sh));
    }
    for (auto &sh : shards_)
        sh->dispatcher = std::thread(
            [this, s = sh.get()] { dispatchLoop(*s); });
}

Scheduler::~Scheduler()
{
    start();
    for (auto &sh : shards_)
        sh->queue->close();
    {
        std::lock_guard<std::mutex> lk(m_);
        closing_ = true;
    }
    cv_.notify_all();
    for (auto &sh : shards_)
        sh->dispatcher.join();
    for (auto &sh : shards_)
        sh->lanes.reset(); // drains the in-flight batches
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
    // queue's sort key — the same value the dispatcher previously
    // derived at batch formation (both measure from p.submitted).
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
Scheduler::dispatchLoop(Shard &shard)
{
    for (;;) {
        {
            // A batch is formed only when a shard lane is free
            // (continuous batching: every request that arrived while
            // the lanes were busy merges into the next batch). When
            // closing, drain unconditionally — queued promises must
            // resolve.
            std::unique_lock<std::mutex> lk(m_);
            cv_.wait(lk, [&] {
                return closing_ ||
                       (started_ &&
                        shard.inFlight < shard.lanes->workers());
            });
        }
        std::vector<PendingRequest> batch =
            shard.queue->popBatch(cfg_.headBudget,
                                  cfg_.tokenBudget);
        if (batch.empty())
            return; // queue closed and drained
        {
            std::lock_guard<std::mutex> lk(m_);
            ++batches_;
            ++shard.batches;
            ++shard.inFlight;
        }
        // PendingRequest holds a promise (move-only); std::function
        // needs a copyable callable, so the batch rides shared_ptr.
        auto shared = std::make_shared<std::vector<PendingRequest>>(
            std::move(batch));
        shard.lanes->submit([this, &shard, shared] {
            runBatch(shard, std::move(*shared));
            {
                std::lock_guard<std::mutex> lk(m_);
                --shard.inFlight;
            }
            cv_.notify_all();
        });
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
                          std::vector<Slot *> &slots)
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

void
Scheduler::runSoloWithRetry(Shard &shard, Slot &slot,
                            double keep_factor, Outcome success,
                            double keep_frac,
                            std::string last_error)
{
    const int max_attempts = std::max(1, cfg_.retry.maxAttempts);
    std::vector<Slot *> solo{&slot};
    while (slot.attempts < max_attempts) {
        if (slot.attempts > 0) {
            {
                std::lock_guard<std::mutex> lk(m_);
                ++retried_;
            }
            sleepSeconds(retryBackoffSeconds(
                cfg_.retry, slot.p.request.id, slot.attempts));
        }
        if (slot.p.hasDeadline && Clock::now() >= slot.p.deadline) {
            resolveSlot(shard, slot, Outcome::TimedOut,
                        EngineResult{}, keep_frac, 0,
                        std::string());
            return;
        }
        try {
            const ModelWorkload mw =
                generateModelWorkload(slot.p.request.work);
            std::vector<HeadTask> tasks;
            appendHeadTasks(mw, slot.kvCold, &tasks);
            const int n = static_cast<int>(tasks.size());
            slot.taskIdx.resize(tasks.size());
            for (std::size_t t = 0; t < tasks.size(); ++t)
                slot.taskIdx[t] = t;
            slot.timedOut = false;
            auto run =
                shard.backend->begin(std::move(tasks), keep_factor);
            const bool ran = stepWithFaults(*run, solo);
            ++slot.attempts;
            if (slot.timedOut || !ran) {
                resolveSlot(shard, slot, Outcome::TimedOut,
                            EngineResult{}, keep_frac, n,
                            std::string());
                return;
            }
            EngineResult res = run->finish();
            {
                std::lock_guard<std::mutex> lk(m_);
                headTasks_ += n;
                shard.headTasks += n;
            }
            // Solo run of the request's own tasks == a standalone
            // Engine::run of its spec, so the bit-exactness
            // contract holds on the recovery and degraded paths.
            resolveSlot(shard, slot, success, std::move(res),
                        keep_frac, n, std::string());
            return;
        } catch (const std::exception &e) {
            ++slot.attempts;
            last_error = e.what();
        } catch (...) {
            ++slot.attempts;
            last_error = "unknown engine failure";
        }
    }
    resolveSlot(shard, slot, Outcome::Failed, EngineResult{},
                keep_frac, 0, std::move(last_error));
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
Scheduler::runBatch(Shard &shard, std::vector<PendingRequest> batch)
{
    const Clock::time_point t0 = Clock::now();
    std::vector<Slot> slots(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Slot &s = slots[i];
        s.p = std::move(batch[i]);
        s.t0 = t0;
    }
    // Whether a prefill splits into query-row chunks this dispatch.
    const auto chunkable = [this](const Request &r) {
        return cfg_.prefillChunkRows > 0 && !r.work.isDecode() &&
               r.work.queryRows() > cfg_.prefillChunkRows;
    };
    try {
        // Pre-dispatch triage: already-expired deadlines resolve
        // TimedOut without consuming an engine run; requests queued
        // past the overload threshold take the degraded path; the
        // rest merge into one engine run.
        std::vector<Slot *> merged_slots;
        std::vector<Slot *> degrade_slots;
        for (Slot &s : slots) {
            if (s.p.hasDeadline && t0 >= s.p.deadline) {
                resolveSlot(shard, s, Outcome::TimedOut,
                            EngineResult{}, 1.0, 0, std::string());
            } else if (cfg_.degradeAfterSeconds > 0.0 &&
                       seconds(s.p.submitted, t0) >
                           cfg_.degradeAfterSeconds) {
                degrade_slots.push_back(&s);
            } else {
                merged_slots.push_back(&s);
            }
        }

        // Degraded requests run solo at the cheaper keep factor,
        // first — they have already waited past the overload
        // threshold. Degradation supersedes chunking: a half-chunked
        // prefill that waited this long reruns whole and cheap.
        const double keep_frac =
            degradedEngineConfig(cfg_).pipeline.topkFrac /
            cfg_.engine.pipeline.topkFrac;
        for (Slot *s : degrade_slots) {
            s->p.chunk.reset();
            preparePoolPin(shard, *s);
            runSoloWithRetry(shard, *s, cfg_.degradeKeepFactor,
                             Outcome::Degraded, keep_frac,
                             std::string());
        }

        if (!merged_slots.empty()) {
            // Materialize each request's workload (deterministic in
            // its own seed), then merge every head onto one grid.
            // Chunked prefills contribute only their next query-row
            // chunk; their full workload is materialized once and
            // rides the ChunkState between dispatches.
            std::vector<ModelWorkload> works;
            works.reserve(merged_slots.size());
            std::deque<std::vector<AttentionWorkload>> chunk_scratch;
            std::vector<int> chunk_upto(merged_slots.size(), 0);

            std::vector<HeadTask> tasks;
            std::vector<std::size_t> owner; // task -> slot index
            for (std::size_t r = 0; r < merged_slots.size(); ++r) {
                Slot *s = merged_slots[r];
                preparePoolPin(shard, *s);
                const std::size_t first = tasks.size();
                if (chunkable(s->p.request)) {
                    if (!s->p.chunk) {
                        s->p.chunk = std::make_shared<ChunkState>();
                        s->p.chunk->work = generateModelWorkload(
                            s->p.request.work);
                    }
                    ChunkState &cs = *s->p.chunk;
                    // Chunk runs are this request's engine attempts:
                    // the fault plan's attempt index advances with
                    // them so injections stay per-dispatch.
                    s->attempts = cs.runs;
                    const int total = cs.work.spec.queryRows();
                    const int r0 = cs.rowsDone;
                    const int r1 = std::min(
                        total, r0 + cfg_.prefillChunkRows);
                    chunk_upto[r] = r1;
                    chunk_scratch.emplace_back();
                    std::vector<AttentionWorkload> &sl =
                        chunk_scratch.back();
                    sl.reserve(cs.work.size());
                    for (int b = 0; b < cs.work.batch(); ++b)
                        for (int h = 0; h < cs.work.heads(); ++h)
                            sl.push_back(sliceQueryRows(
                                cs.work.head(b, h), r0, r1));
                    std::size_t i = 0;
                    for (int b = 0; b < cs.work.batch(); ++b) {
                        for (int h = 0; h < cs.work.heads(); ++h) {
                            HeadTask t;
                            t.workload = &sl[i++];
                            t.batch = b;
                            t.head = h;
                            t.pastLen = 0;
                            tasks.push_back(t);
                        }
                    }
                } else {
                    works.push_back(
                        generateModelWorkload(s->p.request.work));
                    appendHeadTasks(works.back(), s->kvCold,
                                    &tasks);
                }
                for (std::size_t t = first; t < tasks.size(); ++t) {
                    owner.push_back(r);
                    s->taskIdx.push_back(t);
                }
            }
            const int coscheduled = static_cast<int>(tasks.size());

            try {
                // Each stage is a separate pool epoch, so concurrent
                // lanes interleave between stages; the per-stage seam
                // is also where faults inject and deadlines cancel.
                auto run = shard.backend->begin(std::move(tasks));
                const bool ran = stepWithFaults(*run, merged_slots);
                for (Slot *s : merged_slots)
                    ++s->attempts; // the merged run was attempt 0
                if (ran) {
                    EngineResult merged = run->finish();
                    // Count executed work before any promise
                    // resolves, so a caller observing its future
                    // sees consistent stats.
                    {
                        std::lock_guard<std::mutex> lk(m_);
                        headTasks_ += coscheduled;
                        shard.headTasks += coscheduled;
                    }
                    // Split the co-scheduled heads back per request,
                    // in task order, so each aggregate matches a
                    // standalone Engine::run.
                    std::vector<std::vector<HeadResult>> per_req(
                        merged_slots.size());
                    for (std::size_t i = 0; i < merged.heads.size();
                         ++i) {
                        if (!merged_slots[owner[i]]->timedOut)
                            per_req[owner[i]].push_back(
                                std::move(merged.heads[i]));
                    }
                    for (std::size_t r = 0; r < merged_slots.size();
                         ++r) {
                        Slot *s = merged_slots[r];
                        if (s->timedOut) {
                            // A chunked prefill's partial rows are
                            // discarded with the rest.
                            resolveSlot(shard, *s, Outcome::TimedOut,
                                        EngineResult{}, 1.0,
                                        coscheduled, std::string());
                        } else if (s->p.chunk && chunk_upto[r] > 0) {
                            // Bank this chunk's head results; either
                            // re-enqueue the continuation (decode
                            // batches preempt before the next chunk)
                            // or stitch the final aggregate.
                            ChunkState &cs = *s->p.chunk;
                            for (HeadResult &hr : per_req[r])
                                cs.heads.push_back(std::move(hr));
                            cs.rowsDone = chunk_upto[r];
                            cs.runs = s->attempts;
                            {
                                std::lock_guard<std::mutex> lk(m_);
                                ++chunkRuns_;
                            }
                            if (cs.rowsDone <
                                cs.work.spec.queryRows()) {
                                shard.pool->unpin(s->p.request.id);
                                s->taskIdx.clear();
                                s->readmitted = true;
                                shard.queue->pushReadmit(
                                    std::move(s->p));
                            } else {
                                s->chunksDone =
                                    (cs.rowsDone +
                                     cfg_.prefillChunkRows - 1) /
                                    cfg_.prefillChunkRows;
                                resolveSlot(
                                    shard, *s, Outcome::Completed,
                                    aggregateHeadResults(
                                        std::move(cs.heads)),
                                    1.0, coscheduled,
                                    std::string());
                            }
                        } else {
                            resolveSlot(shard, *s,
                                        Outcome::Completed,
                                        aggregateHeadResults(
                                            std::move(per_req[r])),
                                        1.0, coscheduled,
                                        std::string());
                        }
                    }
                } else {
                    // Every merged request timed out mid-run; the
                    // partial work was cancelled and is discarded.
                    for (Slot *s : merged_slots)
                        resolveSlot(shard, *s, Outcome::TimedOut,
                                    EngineResult{}, 1.0, coscheduled,
                                    std::string());
                }
            } catch (const std::exception &e) {
                // Engine failure (injected or real): abandon the
                // merged run; every still-live request recovers with
                // solo retries so one bad request cannot poison its
                // batch neighbours. This path is counted (failed_/
                // retried_) and the futures still resolve normally.
                for (Slot *s : merged_slots)
                    ++s->attempts; // the aborted run was attempt 0
                for (Slot *s : merged_slots) {
                    if (s->resolved)
                        continue;
                    if (s->timedOut) {
                        resolveSlot(shard, *s, Outcome::TimedOut,
                                    EngineResult{}, 1.0, coscheduled,
                                    std::string());
                        continue;
                    }
                    s->taskIdx.clear();
                    // Recovery reruns a chunked prefill whole: its
                    // banked partial rows are discarded with the
                    // poisoned run.
                    s->p.chunk.reset();
                    runSoloWithRetry(shard, *s, 1.0,
                                     Outcome::Completed, 1.0,
                                     e.what());
                }
            }
        }
    } catch (const std::exception &e) {
        // Last-resort safety net (e.g. workload generation failed):
        // resolve every still-pending promise as Failed — futures
        // never carry exceptions and failures are always accounted.
        for (Slot &s : slots)
            if (!s.resolved && !s.readmitted)
                resolveSlot(shard, s, Outcome::Failed,
                            EngineResult{}, 1.0, 0, e.what());
    } catch (...) {
        for (Slot &s : slots)
            if (!s.resolved && !s.readmitted)
                resolveSlot(shard, s, Outcome::Failed,
                            EngineResult{}, 1.0, 0,
                            "unknown scheduler failure");
    }
    // Readmitted chunk continuations are still outstanding (their
    // promise travels back through the queue); everything else
    // resolved above.
    std::size_t readmits = 0, chunk_finished = 0;
    for (const Slot &s : slots) {
        if (s.readmitted)
            ++readmits;
        else if (prefillChunks(s.p.request, cfg_.prefillChunkRows))
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
