/**
 * @file
 * Executor backends behind the serving scheduler: the Backend
 * abstraction turns "the engine" into a fleet. A Backend advertises
 * which request kinds it serves, accepts stage-granular work through
 * begin() — returning a BackendRun that mirrors core/engine's
 * EngineRun step()/finish()/cancel() surface, so fault injection and
 * deadline cancellation keep happening at stage boundaries — and
 * reports queue depth and completed runs for the routing policies
 * and the conformance accounting invariants.
 *
 * One implementation: EngineBackend, a core/engine executor. With
 * `threads > 0` it owns an explicit common/threadpool (never the
 * process-wide default — mutating that from one backend would
 * cross-talk into every other, the latent ScopedDefaultThreads
 * hazard); otherwise it runs on EngineConfig.pool or the process
 * pool, as the scheduler's implicit backend does.
 *
 * Every backend executes the same per-task numerics, so any fleet
 * preserves the scheduler's bit-exactness contract; only wall-clock
 * differs. RoutingPolicy picks the shard: static round-robin
 * (bit-compatible default), least-queue-depth placement, or
 * prefill/decode disaggregation (decode-heavy work pinned to
 * KV-cache-warm backends — the ones that keep a serve/kvpool).
 * routeRequest is the pure decision function the scheduler calls and
 * the property tests replay.
 *
 * Units: queue depth in runs; ops remain OpCounter ops.
 */

#ifndef SOFA_SERVE_BACKEND_H
#define SOFA_SERVE_BACKEND_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "serve/request.h"

namespace sofa {

class ThreadPool;

namespace serve {

/** Which request kinds a backend serves (routing eligibility). */
struct BackendCapabilities
{
    /** Serves prefill-shaped requests (Disaggregated routing sends
     * prefills to prefill-capable backends). */
    bool supportsPrefill = true;
    /** Serves decode-shaped requests. Decode-capable backends are
     * the "KV-cache-warm" class: the scheduler gives them a
     * serve/kvpool shard and Disaggregated routing pins decodes to
     * them. */
    bool supportsDecode = true;
};

class Backend;

/**
 * One stage-granular run in flight on a backend — the fleet
 * counterpart of core/engine's EngineRun. The base class carries the
 * accounting every implementation must keep: the owning backend's
 * queue depth rises at construction and falls at destruction, and
 * finish() counts a completed run exactly once. Subclasses implement
 * the stepping surface; the scheduler only ever sees this interface.
 */
class BackendRun
{
  public:
    /** Register @p tasks tasks in flight on @p owner. */
    BackendRun(Backend &owner, std::size_t tasks);
    virtual ~BackendRun();

    BackendRun(const BackendRun &) = delete;
    BackendRun &operator=(const BackendRun &) = delete;

    virtual std::size_t stageCount() const = 0;
    /** Name of the stage the next step() runs; nullptr when done. */
    virtual const char *nextStageName() const = 0;
    virtual bool done() const = 0;
    /** Execute exactly one stage. Precondition: !done(). */
    virtual void step() = 0;
    /** Cooperatively cancel task @p i (EngineRun::cancel semantics:
     * remaining stages skip it, slot alignment is preserved). */
    virtual void cancel(std::size_t i) = 0;
    virtual bool cancelled(std::size_t i) const = 0;
    /** Always 0; kept only while benchmark/tracing.cc overrides it. */
    virtual double modeledTaskSeconds(std::size_t) const { return 0.0; }

    /** Run any remaining stages, assemble the aggregate result and
     * record the completion on the owner. The run is spent. */
    EngineResult finish();

    std::size_t tasks() const { return tasks_; }

  protected:
    /** Subclass tail of finish() (called once, after stepping). */
    virtual EngineResult finishImpl() = 0;

  private:
    Backend &owner_;
    std::size_t tasks_ = 0;
    bool finished_ = false;
};

/**
 * An executor the scheduler can place work on. Thread-safe: begin()
 * may be called from any lane concurrently; the returned runs are
 * independent (each is stepped by one lane at a time, like
 * EngineRun).
 */
class Backend
{
  public:
    explicit Backend(std::string name);
    virtual ~Backend();

    Backend(const Backend &) = delete;
    Backend &operator=(const Backend &) = delete;

    /** Stable display/routing name ("engine0", "prefill1"). */
    const std::string &name() const { return name_; }

    virtual BackendCapabilities capabilities() const = 0;

    /**
     * Begin a stage-granular run over @p tasks. @p keep_factor in
     * (0, 1] scales the executing pipeline's SADS keep span
     * (pipeline.topkFrac, clamped to [1e-3, 1]) — 1.0 is full
     * service, the scheduler passes its degradeKeepFactor for
     * Outcome::Degraded runs; the scaling matches
     * degradedEngineConfig so degraded results stay bit-exact vs a
     * standalone run of the degraded spec. The task list is copied;
     * the workloads the tasks point at must outlive the run.
     */
    std::unique_ptr<BackendRun> begin(std::vector<HeadTask> tasks,
                                      double keep_factor = 1.0);

    /** Runs in flight (begun, not yet destroyed) — the load signal
     * LeastQueueDepth routing adds to the waiting-queue depth. */
    int queueDepth() const;
    /** Runs whose finish() completed, over the backend's lifetime. */
    std::int64_t completedRuns() const;
    /** Head tasks of those completed runs. */
    std::int64_t completedTasks() const;

  protected:
    virtual std::unique_ptr<BackendRun>
    beginRun(std::vector<HeadTask> tasks, double keep_factor) = 0;

  private:
    friend class BackendRun;

    std::string name_;
    mutable std::mutex m_;
    int inFlight_ = 0;
    std::int64_t completedRuns_ = 0;
    std::int64_t completedTasks_ = 0;
};

/** The engine config @p base with pipeline.topkFrac scaled by
 * @p keep_factor (clamped to [1e-3, 1]) — the degradation lever
 * begin() applies (cf. degradedEngineConfig). */
EngineConfig scaledKeepConfig(const EngineConfig &base,
                              double keep_factor);

/** EngineBackend knobs. */
struct EngineBackendConfig
{
    /** The wrapped engine (pipeline, rowTile, quality, pool). */
    EngineConfig engine;
    /**
     * Size of the backend-owned explicit ThreadPool. > 0: the
     * backend constructs its own pool and points the engine at it,
     * so fleets of engines with different thread counts coexist
     * without touching the process-wide default (the
     * ScopedDefaultThreads hazard). 0 (default): the engine uses
     * whatever `engine.pool` says — an explicit caller pool, else
     * the process-wide instance (bit-compatible single-backend
     * behaviour).
     */
    int threads = 0;
    BackendCapabilities caps;
    std::string name = "engine";
};

/** In-process core/engine executor — the one Backend. */
class EngineBackend : public Backend
{
  public:
    explicit EngineBackend(EngineBackendConfig cfg = {});
    ~EngineBackend() override;

    BackendCapabilities capabilities() const override;
    /** The owned pool's participant count; 0 = no owned pool. */
    int ownedPoolThreads() const;

  protected:
    std::unique_ptr<BackendRun>
    beginRun(std::vector<HeadTask> tasks,
             double keep_factor) override;

  private:
    /** The base engine at keep_factor 1, else the engine for that
     * degraded factor (built on first use, then cached). */
    const Engine &engineFor(double keep_factor);

    EngineBackendConfig cfg_;
    std::unique_ptr<ThreadPool> pool_; ///< owned iff cfg_.threads > 0
    std::unique_ptr<Engine> engine_;
    /** Degraded engines, one per distinct keep factor (the
     * scheduler uses a single one). */
    std::mutex scaledM_;
    std::vector<std::pair<double, std::unique_ptr<Engine>>> scaled_;
};

/** Fleet placement policy (docs/SERVING.md has the routing table). */
enum class RoutingPolicy {
    RoundRobin,      ///< static rotation over capable backends (the
                     ///< default; bit-compatible — one backend
                     ///< degenerates to the single-engine scheduler)
    LeastQueueDepth, ///< lowest waiting+in-flight depth, lowest
                     ///< index on ties
    Disaggregated,   ///< prefills to prefill-preferring backends,
                     ///< decodes pinned to KV-cache-warm
                     ///< (decode-capable) ones; least depth within
                     ///< the class
};

/**
 * The pure routing decision: index of the backend a @p kind request
 * is placed on, given per-backend capabilities and current depths
 * (waiting requests + runs in flight) and the admission-order
 * round-robin counter. Deterministic in its arguments — the
 * routing-property suite replays it — and total: when no backend
 * advertises the kind, the capability filter is dropped rather than
 * failing. @p caps and @p depths must be equal-length and non-empty.
 */
int routeRequest(RoutingPolicy policy, RequestKind kind,
                 const std::vector<BackendCapabilities> &caps,
                 const std::vector<std::int64_t> &depths,
                 std::uint64_t rr_counter);

} // namespace serve
} // namespace sofa

#endif // SOFA_SERVE_BACKEND_H
