/**
 * @file
 * Reusable thread pool with one chunk-claiming parallelFor. A call
 * fixes the chunk grid chunk c = [c*grain, min(n, (c+1)*grain)) for
 * c in [0, ceil(n/grain)), then the caller and every worker pull the
 * next unclaimed chunk off an atomic counter until the grid is
 * exhausted, so a participant that starts late or draws costly
 * chunks leaves the rest to the others. Each chunk's per-row
 * computation is identical to the serial code, and the grid — every
 * chunk's [begin, end) and index — is a pure function of (n, grain),
 * never of the thread count or of which thread claimed what. Callers
 * that keep per-chunk tallies and merge them in chunk order therefore
 * stay bit-exact at any concurrency (integer tallies sum
 * order-independently anyway).
 *
 * The pool honors SOFA_NUM_THREADS (falling back to
 * std::thread::hardware_concurrency; a malformed value is fatal, see
 * parseThreadCount) and runs the same grid serially on the caller
 * when there is a single chunk, when the pool has a single thread,
 * when serial mode is forced, or inside an already-parallel region
 * (nested parallelism runs inline rather than deadlocking).
 *
 * Any number of threads may call parallelFor on one pool at once
 * (the serve/ scheduler's lanes do): concurrent top-level calls
 * serialize on the pool and interleave between calls, which is what
 * lets the stages of independent engine runs overlap.
 *
 * Units: thread counts are participants (the calling thread plus
 * workers); n, grain, and chunk boundaries are rows (work items);
 * grainForRowCost takes flops per row.
 */

#ifndef SOFA_COMMON_THREADPOOL_H
#define SOFA_COMMON_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sofa {

class ThreadPool
{
  public:
    /** Chunk body: process rows [begin, end); chunk is the 0-based
     * index on the grid of ceil(n / grain) chunks. */
    using RangeFn =
        std::function<void(std::size_t, std::size_t, int)>;

    /** Pool with @p threads participants (callers count as one; a
     * pool of n spawns n-1 workers). Clamped to >= 1. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Process-wide pool, created on first use. Thread count comes
     * from setDefaultThreads when called (>= 1), else
     * SOFA_NUM_THREADS when set (parseThreadCount; malformed is
     * fatal), else hardware_concurrency.
     */
    static ThreadPool &instance();

    /**
     * Override the process-wide pool's thread count (wins over
     * SOFA_NUM_THREADS; clamped to [1, 256]), or clear the override
     * with @p threads == 0. Must run before the first instance() use
     * — the bench CLI's --threads flag calls it at startup.
     *
     * Returns the *previous* override (0 = none was set) so nested
     * overrides can restore it — pass the returned value back to undo
     * — or -1 (changing nothing) once the pool exists or when
     * @p threads is negative. ScopedDefaultThreads wraps the
     * save/restore pattern.
     */
    static int setDefaultThreads(int threads);

    /** Current override as last set (0 = none). */
    static int defaultThreadsOverride();

    /** Total participants (calling thread + workers). */
    int threads() const { return nthreads_; }

    /**
     * Run fn(begin, end, chunk) over every chunk of the grid
     * chunk c = [c*grain, min(n, (c+1)*grain)) for
     * c in [0, ceil(n/grain)) (grain 0 counts as 1): the caller and
     * every worker repeatedly claim the lowest unclaimed chunk via an
     * atomic counter, and the call returns once every chunk has run.
     * Which participant runs a chunk is nondeterministic; the grid
     * itself is not, so per-chunk accumulators (sized by the chunk
     * count, not by threads()) merged in chunk order are bit-exact
     * for any thread count. The serial path (single participant,
     * forced serial, nested call, or a single chunk) runs the
     * identical grid in ascending order on the caller.
     *
     * Exception-safe: a throwing participant stops claiming chunks
     * while the others drain the grid, and the first throw surfaces
     * on the calling thread after every worker has finished (when
     * both the caller and a worker throw, the caller's exception wins
     * and the worker's is dropped). Output written by other chunks is
     * left as-is.
     */
    void parallelFor(std::size_t n, std::size_t grain,
                     const RangeFn &fn);

    /**
     * RAII guard forcing every parallelFor into the serial path while
     * alive. Used by determinism tests to compare threaded results
     * against a bit-exact serial execution within one process.
     * Guards nest (a depth count), and serial forcing is independent
     * of the default-thread-count override below.
     */
    class ScopedSerial
    {
      public:
        ScopedSerial();
        ~ScopedSerial();
        ScopedSerial(const ScopedSerial &) = delete;
        ScopedSerial &operator=(const ScopedSerial &) = delete;
    };

    /** True while any ScopedSerial guard is alive. */
    static bool serialForced();

    /**
     * RAII default-thread-count override: installs @p threads via
     * setDefaultThreads and restores the previous override (not
     * simply "no override") on destruction, so nested guards compose.
     * Arms only when setDefaultThreads accepted the change; once the
     * process-wide pool exists the guard is a no-op.
     */
    class ScopedDefaultThreads
    {
      public:
        explicit ScopedDefaultThreads(int threads)
            : prev_(setDefaultThreads(threads))
        {
        }
        ~ScopedDefaultThreads()
        {
            if (prev_ >= 0)
                setDefaultThreads(prev_);
        }
        ScopedDefaultThreads(const ScopedDefaultThreads &) = delete;
        ScopedDefaultThreads &
        operator=(const ScopedDefaultThreads &) = delete;

      private:
        int prev_; ///< previous override; -1 = change was rejected
    };

  private:
    void workerLoop();
    void runChunks(const RangeFn &fn, std::size_t n, std::size_t grain,
                   std::size_t chunks);

    const int nthreads_;
    std::vector<std::thread> workers_;

    std::mutex run_mutex_; ///< serializes top-level parallelFor calls

    std::mutex m_;
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    const RangeFn *job_ = nullptr;
    std::exception_ptr worker_error_; ///< first worker throw, if any
    int done_ = 0; ///< workers finished this epoch
    std::uint64_t epoch_ = 0;
    bool stop_ = false;

    std::size_t n_ = 0;      ///< this epoch's rows
    std::size_t grain_ = 1;  ///< this epoch's chunk size
    std::size_t chunks_ = 0; ///< this epoch's chunk count
    std::atomic<std::size_t> next_chunk_{0}; ///< next unclaimed chunk
};

/**
 * Convenience wrapper over ThreadPool::instance(): run
 * fn(begin, end) over [0, n) in chunks of @p grain rows (the last
 * one shorter), claimed through parallelFor so a late participant
 * does not hold up the call. Runs one fn(0, n) call inline — and so
 * never touches the pool or spawns threads — when the range is too
 * small for two chunks, when serial mode is forced, or inside a
 * pool chunk.
 */
void parallelForRows(std::size_t n, std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>
                         &fn);

/**
 * Minimum rows per chunk so one chunk amortizes a dispatch, given the
 * approximate arithmetic cost of a single row. Rows cheaper than the
 * internal threshold yield large grains (forcing small problems down
 * the serial path).
 */
std::size_t grainForRowCost(double flops_per_row);

/**
 * Parse a SOFA_NUM_THREADS value: plain decimal digits denoting a
 * count >= 1, clamped to 256. Returns 0 (unset) for a null or empty
 * value; throws std::invalid_argument for anything else — zero,
 * signs, spaces, trailing characters — so a malformed value is
 * rejected, never misread.
 */
int parseThreadCount(const char *text);

} // namespace sofa

#endif // SOFA_COMMON_THREADPOOL_H
