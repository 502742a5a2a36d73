#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/logging.h"

namespace sofa {

namespace {

/** Depth of live ScopedSerial guards (process-wide). */
std::atomic<int> g_serial_depth{0};

/** setDefaultThreads override; 0 = unset. */
std::atomic<int> g_default_threads{0};

/** Set once instance() has constructed the process-wide pool. */
std::atomic<bool> g_instance_created{false};

/** Set while this thread is executing a chunk; nested parallelFor
 * calls from inside a chunk run inline instead of re-entering the
 * pool (which would deadlock on run_mutex_). */
thread_local bool tl_in_parallel_region = false;

/** RAII flag for tl_in_parallel_region so it is restored even when a
 * chunk body throws. */
struct RegionGuard
{
    RegionGuard() { tl_in_parallel_region = true; }
    ~RegionGuard() { tl_in_parallel_region = false; }
};

int
envThreads()
{
    const int forced = g_default_threads.load();
    if (forced >= 1)
        return std::min(forced, 256);
    const char *var = "SOFA_NUM_THREADS";
    try {
        if (const int env = parseThreadCount(std::getenv(var)))
            return env;
    } catch (const std::invalid_argument &e) {
        fatal("%s: %s", var, e.what());
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/** One chunk must represent at least this much arithmetic before a
 * parallel dispatch pays for itself (~fraction of a millisecond). */
constexpr double kMinChunkFlops = 1 << 20;

} // namespace

ThreadPool::ThreadPool(int threads)
    : nthreads_(std::max(1, threads))
{
    workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
    for (int w = 0; w < nthreads_ - 1; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

ThreadPool &
ThreadPool::instance()
{
    // Latch the flag *before* construction so a setDefaultThreads
    // racing with the first instance() call is rejected rather than
    // accepted-but-ignored.
    g_instance_created.store(true);
    static ThreadPool pool(envThreads());
    return pool;
}

int
ThreadPool::setDefaultThreads(int threads)
{
    if (threads < 0 || g_instance_created.load())
        return -1;
    const int clamped = std::min(threads, 256);
    // exchange (not store) returns the previous override, which is
    // what lets nested overrides restore it exactly; 0 clears.
    return g_default_threads.exchange(clamped);
}

int
ThreadPool::defaultThreadsOverride()
{
    return g_default_threads.load();
}

void
ThreadPool::runChunks(const RangeFn &fn, std::size_t n,
                      std::size_t grain, std::size_t chunks)
{
    for (;;) {
        const std::size_t c =
            next_chunk_.fetch_add(1, std::memory_order_relaxed);
        if (c >= chunks)
            return;
        const std::size_t b = c * grain;
        fn(b, std::min(n, b + grain), static_cast<int>(c));
    }
}

void
ThreadPool::parallelFor(std::size_t n, std::size_t grain,
                        const RangeFn &fn)
{
    if (n == 0)
        return;
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t chunks = (n + grain - 1) / grain;

    if (chunks <= 1 || nthreads_ <= 1 || serialForced() ||
        tl_in_parallel_region) {
        // Serial path runs the *same* chunk grid in ascending order,
        // so callers keeping per-chunk tallies see identical chunk
        // shapes and indices in every execution mode.
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t b = c * grain;
            fn(b, std::min(n, b + grain), static_cast<int>(c));
        }
        return;
    }

    std::lock_guard<std::mutex> serialize(run_mutex_);

    {
        std::lock_guard<std::mutex> lk(m_);
        job_ = &fn;
        n_ = n;
        grain_ = grain;
        chunks_ = chunks;
        next_chunk_.store(0, std::memory_order_relaxed);
        done_ = 0;
        worker_error_ = nullptr;
        ++epoch_;
    }
    wake_cv_.notify_all();

    // Workers reference fn through job_, so even if the caller's
    // chunk throws we must block until they drain before unwinding
    // destroys the callable (and before run_mutex_ is released).
    struct CompletionWait
    {
        ThreadPool &pool;
        ~CompletionWait()
        {
            std::unique_lock<std::mutex> lk(pool.m_);
            pool.done_cv_.wait(lk, [&] {
                return pool.done_ == pool.nthreads_ - 1;
            });
            pool.job_ = nullptr;
        }
    } wait_for_workers{*this};

    {
        RegionGuard region;
        runChunks(fn, n, grain, chunks);
    }

    // Workers are drained by wait_for_workers before this scope ends;
    // surface the first worker exception on the caller (reached only
    // when the caller's own chunks did not throw — that one wins).
    std::exception_ptr worker_error;
    {
        std::unique_lock<std::mutex> lk(m_);
        done_cv_.wait(lk, [&] { return done_ == nthreads_ - 1; });
        worker_error = worker_error_;
        worker_error_ = nullptr;
    }
    if (worker_error)
        std::rethrow_exception(worker_error);
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        wake_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        if (stop_)
            return;
        seen = epoch_;
        const RangeFn *job = job_;
        const std::size_t n = n_;
        const std::size_t grain = grain_;
        const std::size_t chunks = chunks_;
        lk.unlock();

        std::exception_ptr error;
        {
            RegionGuard region;
            try {
                runChunks(*job, n, grain, chunks);
            } catch (...) {
                // Stop claiming chunks; the other participants
                // drain the rest of the grid.
                error = std::current_exception();
            }
        }

        lk.lock();
        if (error && !worker_error_)
            worker_error_ = error;
        if (++done_ == nthreads_ - 1)
            done_cv_.notify_one();
    }
}

ThreadPool::ScopedSerial::ScopedSerial()
{
    g_serial_depth.fetch_add(1, std::memory_order_relaxed);
}

ThreadPool::ScopedSerial::~ScopedSerial()
{
    g_serial_depth.fetch_sub(1, std::memory_order_relaxed);
}

bool
ThreadPool::serialForced()
{
    return g_serial_depth.load(std::memory_order_relaxed) > 0;
}

void
parallelForRows(std::size_t n, std::size_t grain,
                const std::function<void(std::size_t, std::size_t)> &fn)
{
    grain = std::max<std::size_t>(grain, 1);
    // Below two chunks the pool would run serially anyway; skip
    // instance() so small workloads never spawn worker threads.
    if (n < 2 * grain || ThreadPool::serialForced() ||
        tl_in_parallel_region) {
        if (n > 0)
            fn(0, n);
        return;
    }
    // Grain-sized chunks claimed off the counter: a participant that
    // starts late (its core busy or slow to wake) leaves its rows to
    // the others instead of holding up the whole call.
    ThreadPool::instance().parallelFor(
        n, grain,
        [&fn](std::size_t b, std::size_t e, int) { fn(b, e); });
}

std::size_t
grainForRowCost(double flops_per_row)
{
    const double per_row = std::max(flops_per_row, 1.0);
    const double rows = kMinChunkFlops / per_row;
    if (rows <= 1.0)
        return 1;
    return static_cast<std::size_t>(rows);
}

int
parseThreadCount(const char *text)
{
    if (text == nullptr || *text == '\0')
        return 0;
    int count = 0;
    for (const char *c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            throw std::invalid_argument(
                std::string("expected a thread count >= 1, got '") +
                text + "'");
        // Saturate well above the clamp so long inputs cannot overflow.
        count = std::min(count * 10 + (*c - '0'), 1000);
    }
    if (count < 1)
        throw std::invalid_argument(
            std::string("thread count must be >= 1, got '") + text +
            "'");
    return std::min(count, 256);
}

} // namespace sofa
