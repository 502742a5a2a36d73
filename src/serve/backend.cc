#include "serve/backend.h"

#include <algorithm>

#include "common/logging.h"
#include "common/threadpool.h"

namespace sofa {
namespace serve {

// ---------------------------------------------------------------
// BackendRun / Backend accounting
// ---------------------------------------------------------------

BackendRun::BackendRun(Backend &owner, std::size_t tasks)
    : owner_(owner), tasks_(tasks)
{
    std::lock_guard<std::mutex> lk(owner_.m_);
    ++owner_.inFlight_;
}

BackendRun::~BackendRun()
{
    std::lock_guard<std::mutex> lk(owner_.m_);
    --owner_.inFlight_;
}

EngineResult
BackendRun::finish()
{
    SOFA_ASSERT(!finished_);
    while (!done())
        step();
    EngineResult res = finishImpl();
    finished_ = true;
    {
        std::lock_guard<std::mutex> lk(owner_.m_);
        ++owner_.completedRuns_;
        owner_.completedTasks_ +=
            static_cast<std::int64_t>(tasks_);
    }
    return res;
}

Backend::Backend(std::string name) : name_(std::move(name)) {}

Backend::~Backend() = default;

std::unique_ptr<BackendRun>
Backend::begin(std::vector<HeadTask> tasks, double keep_factor)
{
    SOFA_ASSERT(keep_factor > 0.0 && keep_factor <= 1.0);
    return beginRun(std::move(tasks), keep_factor);
}

int
Backend::queueDepth() const
{
    std::lock_guard<std::mutex> lk(m_);
    return inFlight_;
}

std::int64_t
Backend::completedRuns() const
{
    std::lock_guard<std::mutex> lk(m_);
    return completedRuns_;
}

std::int64_t
Backend::completedTasks() const
{
    std::lock_guard<std::mutex> lk(m_);
    return completedTasks_;
}

EngineConfig
scaledKeepConfig(const EngineConfig &base, double keep_factor)
{
    EngineConfig ec = base;
    const double frac = ec.pipeline.topkFrac * keep_factor;
    ec.pipeline.topkFrac = std::min(1.0, std::max(1e-3, frac));
    return ec;
}

namespace {

/** The run shape EngineBackend hands out: an EngineRun behind the
 * BackendRun accounting. */
class WrappedEngineRun : public BackendRun
{
  public:
    WrappedEngineRun(Backend &owner, const Engine &eng,
                     std::vector<HeadTask> tasks)
        : BackendRun(owner, tasks.size()),
          run_(eng, std::move(tasks))
    {
    }

    std::size_t stageCount() const override
    {
        return run_.stageCount();
    }
    const char *nextStageName() const override
    {
        return run_.nextStageName();
    }
    bool done() const override { return run_.done(); }
    void step() override { run_.step(); }
    void cancel(std::size_t i) override { run_.cancel(i); }
    bool cancelled(std::size_t i) const override
    {
        return run_.cancelled(i);
    }

  protected:
    EngineResult finishImpl() override { return run_.finish(); }

  private:
    EngineRun run_;
};

} // namespace

// ---------------------------------------------------------------
// EngineBackend
// ---------------------------------------------------------------

EngineBackend::EngineBackend(EngineBackendConfig cfg)
    : Backend(cfg.name.empty() ? "engine" : cfg.name),
      cfg_(std::move(cfg))
{
    if (cfg_.threads > 0) {
        // The fleet fix: an owned explicit pool instead of mutating
        // the process-wide default, so N backends with different
        // thread counts run concurrently without cross-talk.
        pool_ = std::make_unique<ThreadPool>(cfg_.threads);
        cfg_.engine.pool = pool_.get();
    }
    engine_ = std::make_unique<Engine>(cfg_.engine);
}

EngineBackend::~EngineBackend() = default;

BackendCapabilities
EngineBackend::capabilities() const
{
    return cfg_.caps;
}

int
EngineBackend::ownedPoolThreads() const
{
    return pool_ ? pool_->threads() : 0;
}

const Engine &
EngineBackend::engineFor(double keep_factor)
{
    if (keep_factor >= 1.0)
        return *engine_;
    std::lock_guard<std::mutex> lk(scaledM_);
    for (const auto &e : scaled_)
        if (e.first == keep_factor)
            return *e.second;
    scaled_.emplace_back(keep_factor,
                         std::make_unique<Engine>(scaledKeepConfig(
                             cfg_.engine, keep_factor)));
    return *scaled_.back().second;
}

std::unique_ptr<BackendRun>
EngineBackend::beginRun(std::vector<HeadTask> tasks,
                        double keep_factor)
{
    return std::make_unique<WrappedEngineRun>(
        *this, engineFor(keep_factor), std::move(tasks));
}

// ---------------------------------------------------------------
// Routing
// ---------------------------------------------------------------

int
routeRequest(RoutingPolicy policy, RequestKind kind,
             const std::vector<BackendCapabilities> &caps,
             const std::vector<std::int64_t> &depths,
             std::uint64_t rr_counter)
{
    SOFA_ASSERT(!caps.empty());
    SOFA_ASSERT(caps.size() == depths.size());
    const auto serves = [&](const BackendCapabilities &c) {
        return kind == RequestKind::Decode ? c.supportsDecode
                                           : c.supportsPrefill;
    };
    std::vector<int> elig;
    elig.reserve(caps.size());
    for (std::size_t i = 0; i < caps.size(); ++i)
        if (serves(caps[i]))
            elig.push_back(static_cast<int>(i));
    if (elig.empty())
        // No backend advertises the kind: routing stays total (the
        // capability filter is advisory, correctness is universal).
        for (std::size_t i = 0; i < caps.size(); ++i)
            elig.push_back(static_cast<int>(i));
    if (policy == RoutingPolicy::Disaggregated &&
        kind == RequestKind::Prefill) {
        // Keep the KV-cache-warm (decode-capable) shards for decode
        // work when dedicated prefill backends exist.
        std::vector<int> pure;
        for (int i : elig)
            if (!caps[static_cast<std::size_t>(i)].supportsDecode)
                pure.push_back(i);
        if (!pure.empty())
            elig = std::move(pure);
    }
    if (policy == RoutingPolicy::RoundRobin)
        return elig[static_cast<std::size_t>(
            rr_counter % elig.size())];
    int best = elig[0];
    for (int i : elig)
        if (depths[static_cast<std::size_t>(i)] <
            depths[static_cast<std::size_t>(best)])
            best = i;
    return best;
}

} // namespace serve
} // namespace sofa
