/**
 * @file
 * Bounded admission queue between Scheduler::submit and the
 * scheduler's lanes, with pluggable batch-formation order
 * (SchedulingPolicy):
 *
 *  - FIFO (default): strict arrival order, bit-compatible with the
 *    original single-policy queue — the head of the line always
 *    dispatches and a front-contiguous run extends it under the
 *    head-task and context-token budgets, so no request can be
 *    starved by later arrivals.
 *  - EDF: earliest-deadline-first — requests order by their absolute
 *    deadline (no-deadline requests sort last, FIFO among
 *    themselves), and a batch is always a deadline-order prefix: a
 *    later-deadline request is never dispatched while an earlier-
 *    deadline one that fit the same batch window waits.
 *  - DRR: deficit-round-robin per-tenant fairness over
 *    Request.tenant — each tenant's deficit counter earns
 *    `drr_quantum_heads` head tasks of credit per round-robin visit
 *    and spends it on its FIFO-ordered requests. Batch windows are
 *    pure cut points in one continuous DRR scan (a window that fills
 *    mid-visit suspends the visit and the next pop resumes it), so
 *    the served sequence is exactly single-stream deficit round
 *    robin and any two continuously backlogged tenants' served head
 *    tasks stay within one quantum plus one max-size request of one
 *    another — the classic Shreedhar-Varghese bound, independent of
 *    the batch budgets.
 *
 * Admission is capacity-checked at push (queue full => the caller
 * sheds the request explicitly — nothing is ever dropped inside the
 * queue). The capacity intentionally overbooks the in-flight lanes —
 * Tailors-style: admit more work than worst-case concurrent capacity
 * and shed only beyond the buffer. pushReadmit re-enqueues an
 * already-admitted request (a chunked prefill's continuation)
 * bypassing the capacity check. Chunk-eligible requests (see
 * prefillChunks) are tracked from pop until they readmit or their
 * owner calls finishPopped, so a closed queue does not report
 * drained while a continuation may still come back; requests that
 * cannot chunk carry no such obligation and popBatch hands them off
 * exactly as the original single-policy queue did.
 *
 * Units: capacity and depth in requests; budgets in head tasks and
 * context tokens; DRR quantum in head tasks (see serve/request.h).
 */

#ifndef SOFA_SERVE_REQUEST_QUEUE_H
#define SOFA_SERVE_REQUEST_QUEUE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/request.h"

namespace sofa {
namespace serve {

/** Batch-formation order (docs/SERVING.md has the policy table). */
enum class SchedulingPolicy {
    FIFO, ///< arrival order (the default; original behaviour)
    EDF,  ///< earliest absolute deadline first, FIFO tiebreak
    DRR,  ///< deficit round robin across Request.tenant
};

/** Stable lower-case policy name ("fifo", "edf", "drr"). */
const char *schedulingPolicyName(SchedulingPolicy p);

/** Whether @p r dispatches as query-row chunks under a
 * `prefill_chunk_rows` setting of @p chunk_rows — the predicate the
 * queue (readmit obligations) and the scheduler (chunk dispatch)
 * must agree on. */
inline bool
prefillChunks(const Request &r, int chunk_rows)
{
    return chunk_rows > 0 && !r.work.isDecode() &&
           r.work.queryRows() > chunk_rows;
}

/**
 * Progress state of a chunked prefill riding its PendingRequest
 * between dispatches: the workload is materialized once, each
 * dispatch runs one query-row chunk, and the accumulated per-chunk
 * head results stitch into the final aggregate (scheduler.cc).
 */
struct ChunkState
{
    ModelWorkload work;
    int rowsDone = 0; ///< query rows already computed per head
    int runs = 0;     ///< engine runs consumed by previous chunks
    std::vector<HeadResult> heads; ///< per-chunk results, in order
};

/** A request waiting in the queue, with its completion promise. */
struct PendingRequest
{
    Request request;
    std::promise<RequestResult> promise;
    std::chrono::steady_clock::time_point submitted;
    /** Absolute deadline, resolved by the scheduler at submit()
     * (EDF's sort key; also the timeout the lanes enforce). */
    bool hasDeadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /** Arrival order, assigned at push — FIFO order and every
     * policy's deterministic tiebreak. */
    std::uint64_t seqNo = 0;
    /** Fleet shard the request was routed to at admission (the
     * scheduler sets it before push; 0 on a single-backend fleet). */
    int backend = 0;
    /** Non-null while a chunked prefill is in progress. */
    std::shared_ptr<ChunkState> chunk;
};

class RequestQueue
{
  public:
    /** Queue admitting at most @p capacity waiting requests, popped
     * in @p policy order (@p drr_quantum_heads is DRR's per-visit
     * credit, in head tasks; other policies ignore it).
     * @p prefill_chunk_rows mirrors the scheduler's chunking knob so
     * the queue knows which popped requests may come back through
     * pushReadmit (0 = none, the default). */
    explicit RequestQueue(
        std::size_t capacity,
        SchedulingPolicy policy = SchedulingPolicy::FIFO,
        std::int64_t drr_quantum_heads = 8,
        int prefill_chunk_rows = 0);

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    SchedulingPolicy policy() const { return policy_; }

    /**
     * Admit @p p. Returns false — leaving @p p untouched, so the
     * caller can resolve its promise as Shed — when the queue holds
     * `capacity` requests or has been closed.
     */
    bool push(PendingRequest &&p);

    /**
     * Re-enqueue an already-admitted request (a chunked prefill
     * continuation): bypasses the capacity and closed checks — the
     * request was admitted once and must drain — keeps its original
     * seqNo/deadline keys, and retires one popped-but-unresolved
     * slot. FIFO appends it behind the current backlog (decode
     * arrivals preempt the remaining chunks), EDF re-inserts by
     * deadline, DRR appends to its tenant's line.
     */
    void pushReadmit(PendingRequest &&p);

    /**
     * Pop a batch in policy order: blocks until at least one request
     * is available (the first-chosen request is taken whatever its
     * size), then extends while the policy's next candidate fits the
     * remaining head-task and context-token budgets. Returns an
     * empty batch only once the queue is closed, drained, *and* no
     * popped request is still unresolved (finishPopped/pushReadmit
     * retire them). Several lanes may wait here at once; each
     * request goes to exactly one of them.
     */
    std::vector<PendingRequest> popBatch(std::int64_t head_budget,
                                         std::int64_t token_budget);

    /** Retire @p n popped requests whose promises resolved. */
    void finishPopped(std::size_t n);

    /** Stop admitting; popBatch keeps draining what was admitted. */
    void close();

    std::size_t size() const;
    bool closed() const;
    /** High-water mark of the waiting depth (for stats). */
    std::size_t maxDepth() const;

  private:
    void enqueueLocked(PendingRequest &&p);
    std::vector<PendingRequest> popOrderedLocked(
        std::int64_t head_budget, std::int64_t token_budget);
    std::vector<PendingRequest> popDrrLocked(
        std::int64_t head_budget, std::int64_t token_budget);

    const std::size_t capacity_;
    const SchedulingPolicy policy_;
    const std::int64_t quantum_;
    const int chunkRows_;
    mutable std::mutex m_;
    std::condition_variable cv_;
    /** FIFO: arrival order; EDF: kept sorted by (deadline, seqNo). */
    std::deque<PendingRequest> q_;
    /** DRR: per-tenant FIFO lines + the round-robin visit ring and
     * per-tenant deficit credit (head tasks). */
    std::map<int, std::deque<PendingRequest>> tenantQ_;
    std::deque<int> ring_;
    std::map<int, std::int64_t> deficit_;
    /** DRR: true while the ring-front tenant's current visit has
     * earned its quantum but was suspended by a full batch window —
     * the next popBatch resumes that visit without re-earning. */
    bool visitArmed_ = false;
    std::size_t count_ = 0;  ///< waiting requests, all policies
    std::size_t popped_ = 0; ///< popped, not yet finished/readmitted
    std::uint64_t nextSeq_ = 0;
    std::size_t max_depth_ = 0;
    bool closed_ = false;
};

} // namespace serve
} // namespace sofa

#endif // SOFA_SERVE_REQUEST_QUEUE_H
