#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/threadpool.h"

namespace sofa {
namespace {

// These run first on purpose (gtest keeps registration order):
// setDefaultThreads only accepts changes before the process-wide
// pool exists, and later tests in this binary create it through
// parallelForRows.
TEST(ThreadPoolDefaults, SetAndClearReturnPreviousOverride)
{
    ASSERT_EQ(ThreadPool::defaultThreadsOverride(), 0);
    EXPECT_EQ(ThreadPool::setDefaultThreads(5), 0);
    EXPECT_EQ(ThreadPool::defaultThreadsOverride(), 5);
    EXPECT_EQ(ThreadPool::setDefaultThreads(3), 5);
    EXPECT_EQ(ThreadPool::setDefaultThreads(-2), -1); // rejected
    EXPECT_EQ(ThreadPool::defaultThreadsOverride(), 3);
    EXPECT_EQ(ThreadPool::setDefaultThreads(0), 3); // clear
    EXPECT_EQ(ThreadPool::defaultThreadsOverride(), 0);
}

TEST(ThreadPoolDefaults, ScopedOverridesNestAndRestore)
{
    ASSERT_EQ(ThreadPool::defaultThreadsOverride(), 0);
    {
        ThreadPool::ScopedDefaultThreads outer(7);
        EXPECT_EQ(ThreadPool::defaultThreadsOverride(), 7);
        {
            ThreadPool::ScopedDefaultThreads inner(2);
            EXPECT_EQ(ThreadPool::defaultThreadsOverride(), 2);
        }
        // The regression this locks down: the inner guard must
        // restore the *outer* override, not clear it outright.
        EXPECT_EQ(ThreadPool::defaultThreadsOverride(), 7);
    }
    EXPECT_EQ(ThreadPool::defaultThreadsOverride(), 0);
}

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 1237;
    std::vector<int> hits(n, 0);
    // Chunks are disjoint, so unsynchronized writes are race-free.
    pool.parallelFor(n, 1,
                     [&](std::size_t b, std::size_t e, int) {
                         for (std::size_t i = b; i < e; ++i)
                             hits[i] += 1;
                     });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "row " << i;
}

TEST(ThreadPool, SmallRangeRunsSerialOnCaller)
{
    ThreadPool pool(4);
    int calls = 0;
    std::thread::id tid;
    // grain 100 over 30 rows: one chunk, inline on the caller.
    pool.parallelFor(30, 100,
                     [&](std::size_t b, std::size_t e, int chunk) {
                         ++calls;
                         tid = std::this_thread::get_id();
                         EXPECT_EQ(b, 0u);
                         EXPECT_EQ(e, 30u);
                         EXPECT_EQ(chunk, 0);
                     });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(tid, std::this_thread::get_id());
}

TEST(ThreadPool, ScopedSerialForcesInlineExecution)
{
    ThreadPool pool(4);
    {
        ThreadPool::ScopedSerial outer;
        EXPECT_TRUE(ThreadPool::serialForced());
        {
            ThreadPool::ScopedSerial inner;
            EXPECT_TRUE(ThreadPool::serialForced());
        }
        // Guards nest: the outer one still forces serial.
        EXPECT_TRUE(ThreadPool::serialForced());
        // Every chunk runs on the caller, so the plain counter needs
        // no synchronization.
        const std::thread::id caller = std::this_thread::get_id();
        int calls = 0;
        pool.parallelFor(1000, 1,
                         [&](std::size_t, std::size_t, int) {
                             EXPECT_EQ(std::this_thread::get_id(),
                                       caller);
                             ++calls;
                         });
        EXPECT_EQ(calls, 1000);
    }
    EXPECT_FALSE(ThreadPool::serialForced());
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::vector<std::int64_t> rows_sum(4, 0);
    std::vector<int> rows_calls(4, 0);
    pool.parallelFor(4, 1, [&](std::size_t, std::size_t, int chunk) {
        const std::size_t c = static_cast<std::size_t>(chunk);
        const std::thread::id outer = std::this_thread::get_id();
        // A nested parallelForRows degrades to one fn(0, n) call on
        // this participant.
        parallelForRows(100, 1, [&](std::size_t nb, std::size_t ne) {
            ++rows_calls[c];
            EXPECT_EQ(std::this_thread::get_id(), outer);
            for (std::size_t j = nb; j < ne; ++j)
                rows_sum[c] += static_cast<std::int64_t>(j);
        });
    });
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(rows_calls[c], 1);
        EXPECT_EQ(rows_sum[c], 4950);
    }
}

TEST(ThreadPool, ReusableAcrossManyDispatches)
{
    ThreadPool pool(3);
    const std::size_t n = 301, grain = 7;
    for (int round = 0; round < 50; ++round) {
        // One slot per chunk of the grid, not per thread.
        std::vector<std::int64_t> partial((n + grain - 1) / grain, 0);
        pool.parallelFor(
            n, grain, [&](std::size_t b, std::size_t e, int chunk) {
                partial[static_cast<std::size_t>(chunk)] =
                    static_cast<std::int64_t>(e - b);
            });
        std::int64_t total = 0;
        for (const auto p : partial)
            total += p;
        ASSERT_EQ(total, 301);
    }
}

TEST(ThreadPool, WorkerShardExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    struct ChunkError
    {
    };
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> worker_threw{false};
    std::vector<int> runs(400, 0); // written by the caller only
    EXPECT_THROW(
        pool.parallelFor(
            400, 1,
            [&](std::size_t b, std::size_t, int) {
                if (std::this_thread::get_id() != caller) {
                    worker_threw = true;
                    throw ChunkError{};
                }
                // Hold the caller's first chunk until a worker has
                // thrown, so a worker exception is certain to exist.
                while (!worker_threw)
                    std::this_thread::yield();
                ++runs[b];
            }),
        ChunkError);
    // Each thrower stops claiming and the caller drains the grid: no
    // chunk runs twice, and only the workers' (at most three) are
    // lost.
    int ran = 0;
    for (const int r : runs) {
        EXPECT_LE(r, 1);
        ran += r;
    }
    EXPECT_GE(ran, 397);
    EXPECT_LE(ran, 399);
    // The pool stays usable after an exceptional dispatch.
    std::atomic<int> calls{0};
    pool.parallelFor(400, 10,
                     [&](std::size_t, std::size_t, int) { ++calls; });
    EXPECT_EQ(calls.load(), 40);
}

TEST(ThreadPool, CallerShardExceptionWinsAndDrainsWorkers)
{
    ThreadPool pool(4);
    struct CallerError
    {
    };
    struct WorkerError
    {
    };
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> caller_in{false}, worker_threw{false};
    std::atomic<int> done{0};
    EXPECT_THROW(
        pool.parallelFor(
            400, 1,
            [&](std::size_t, std::size_t, int) {
                if (std::this_thread::get_id() == caller) {
                    // Throw only once a worker has thrown too: both
                    // exceptions exist, and the caller's must win.
                    caller_in = true;
                    while (!worker_threw)
                        std::this_thread::yield();
                    throw CallerError{};
                }
                // Workers hold their first chunk until the caller
                // has claimed one, so it cannot find the grid empty.
                while (!caller_in)
                    std::this_thread::yield();
                if (!worker_threw.exchange(true))
                    throw WorkerError{};
                ++done;
            }),
        CallerError);
    // The two other workers drained every remaining chunk before the
    // exception surfaced: all but the two throwing ones ran.
    EXPECT_EQ(done.load(), 398);
}

TEST(ThreadPool, ZeroRowsIsANoop)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, 1,
                     [&](std::size_t, std::size_t, int) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelForRows(0, 1, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ConcurrentTopLevelCallersShareOnePool)
{
    // The serve scheduler's pattern: several threads (its lanes)
    // each run pool-chunked work on one pool at the same time.
    // Concurrent top-level parallelFor calls serialize per call and
    // each still covers its own grid exactly.
    ThreadPool pool(4);
    std::vector<std::vector<int>> out(4, std::vector<int>(100, 0));
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t)
        callers.emplace_back([&pool, &out, t] {
            for (int rep = 0; rep < 25; ++rep)
                pool.parallelFor(
                    100, 1, [&out, t](std::size_t b, std::size_t e, int) {
                        for (std::size_t i = b; i < e; ++i)
                            ++out[static_cast<std::size_t>(t)][i];
                    });
        });
    for (std::thread &c : callers)
        c.join();
    for (int t = 0; t < 4; ++t)
        for (int v : out[static_cast<std::size_t>(t)])
            ASSERT_EQ(v, 25);
}

// The chunk-claiming contract of parallelFor: the grid of
// ceil(n / grain) chunks, claimed by every participant.
TEST(ThreadPoolDynamic, CoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 1237;
    std::vector<int> hits(n, 0);
    // Chunks are disjoint, so unsynchronized writes are race-free.
    pool.parallelFor(n, 10, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i)
            hits[i] += 1;
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "row " << i;
}

/** The chunk grid every mode must produce for (n, grain). */
std::vector<std::array<std::size_t, 2>>
expectedChunkGrid(std::size_t n, std::size_t grain)
{
    std::vector<std::array<std::size_t, 2>> grid;
    for (std::size_t b = 0; b < n; b += grain)
        grid.push_back({b, std::min(n, b + grain)});
    return grid;
}

TEST(ThreadPoolDynamic, ChunkGridIsDeterministicAcrossModes)
{
    const std::size_t n = 103, grain = 10; // ragged final chunk
    const auto expect = expectedChunkGrid(n, grain);

    const auto collect = [&](ThreadPool &pool) {
        std::mutex mu;
        std::vector<std::array<std::size_t, 3>> seen;
        pool.parallelFor(
            n, grain, [&](std::size_t b, std::size_t e, int chunk) {
                std::lock_guard<std::mutex> lock(mu);
                seen.push_back(
                    {b, e, static_cast<std::size_t>(chunk)});
            });
        std::sort(seen.begin(), seen.end(),
                  [](const auto &a, const auto &b) {
                      return a[2] < b[2];
                  });
        return seen;
    };

    ThreadPool wide(4), narrow(1);
    for (auto *pool : {&wide, &narrow}) {
        const auto seen = collect(*pool);
        ASSERT_EQ(seen.size(), expect.size());
        for (std::size_t c = 0; c < expect.size(); ++c) {
            EXPECT_EQ(seen[c][0], expect[c][0]) << "chunk " << c;
            EXPECT_EQ(seen[c][1], expect[c][1]) << "chunk " << c;
            EXPECT_EQ(seen[c][2], c);
        }
    }
}

TEST(ThreadPoolDynamic, SerialPathRunsGridAscendingOnCaller)
{
    ThreadPool pool(4);
    ThreadPool::ScopedSerial serial;
    std::vector<int> order;
    std::thread::id tid;
    pool.parallelFor(95, 10,
                     [&](std::size_t b, std::size_t e, int chunk) {
                         order.push_back(chunk);
                         tid = std::this_thread::get_id();
                         EXPECT_EQ(b, 10u * chunk);
                         EXPECT_EQ(e, std::min<std::size_t>(95, b + 10));
                     });
    ASSERT_EQ(order.size(), 10u);
    for (int c = 0; c < 10; ++c)
        EXPECT_EQ(order[static_cast<std::size_t>(c)], c);
    EXPECT_EQ(tid, std::this_thread::get_id());
}

TEST(ThreadPoolDynamic, MoreThreadsThanChunks)
{
    ThreadPool pool(8);
    std::vector<int> hits(3, 0);
    pool.parallelFor(3, 1, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i)
            hits[i] += 1;
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPoolDynamic, NestedCallRunsInline)
{
    ThreadPool pool(4);
    std::vector<std::int64_t> outer_sum(4, 0);
    pool.parallelFor(4, 1, [&](std::size_t, std::size_t, int chunk) {
        const std::size_t c = static_cast<std::size_t>(chunk);
        const std::thread::id outer = std::this_thread::get_id();
        // A nested pool call runs its whole grid inline here.
        pool.parallelFor(100, 10,
                         [&](std::size_t nb, std::size_t ne, int) {
                             EXPECT_EQ(std::this_thread::get_id(),
                                       outer);
                             for (std::size_t j = nb; j < ne; ++j)
                                 outer_sum[c] +=
                                     static_cast<std::int64_t>(j);
                         });
    });
    for (const auto s : outer_sum)
        EXPECT_EQ(s, 4950);
}

TEST(ThreadPoolDynamic, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(4);
    struct ChunkError
    {
    };
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(400, 10,
                                  [&](std::size_t, std::size_t,
                                      int chunk) {
                                      if (chunk == 3)
                                          throw ChunkError{};
                                      ++ran;
                                  }),
                 ChunkError);
    // The thrower stops claiming and the others drain the grid: no
    // chunk runs twice and only the throwing one is lost.
    EXPECT_EQ(ran.load(), 39);
    std::atomic<int> calls{0};
    pool.parallelFor(400, 10,
                     [&](std::size_t, std::size_t, int) { ++calls; });
    EXPECT_EQ(calls.load(), 40);
}

TEST(ThreadPoolDynamic, ZeroRowsIsANoop)
{
    ThreadPool pool(4);
    int calls = 0;
    // Grain 0 counts as 1; no grain makes a chunk out of no rows.
    for (const std::size_t grain :
         {std::size_t{0}, std::size_t{1}, std::size_t{10}})
        pool.parallelFor(0, grain,
                         [&](std::size_t, std::size_t, int) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolDefaultsLate, RejectedOncePoolExists)
{
    // Self-contained: force the process-wide pool into existence,
    // then confirm the override API refuses to lie about it.
    std::atomic<std::int64_t> sum{0};
    parallelForRows(1000, 1, [&](std::size_t b, std::size_t e) {
        sum += static_cast<std::int64_t>(e - b);
    });
    EXPECT_EQ(sum.load(), 1000);
    EXPECT_EQ(ThreadPool::setDefaultThreads(4), -1);
    {
        ThreadPool::ScopedDefaultThreads noop(4); // must not arm
    }
    EXPECT_EQ(ThreadPool::setDefaultThreads(2), -1);
}

TEST(ParallelForRows, ClaimsGrainSizedChunksCoveringEveryRowOnce)
{
    // Chunks of exactly `grain` rows (the last one shorter), each row
    // once: what lets a late participant's rows go to the others.
    std::mutex m;
    std::vector<int> seen(1000, 0);
    parallelForRows(1000, 64, [&](std::size_t b, std::size_t e) {
        std::lock_guard<std::mutex> lk(m);
        EXPECT_EQ(b % 64, 0u);
        EXPECT_EQ(e, std::min<std::size_t>(1000, b + 64));
        for (std::size_t r = b; r < e; ++r)
            ++seen[r];
    });
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(GrainForRowCost, ScalesInverselyWithRowCost)
{
    // Expensive rows chunk immediately; cheap rows need big chunks.
    EXPECT_EQ(grainForRowCost(2.0 * 1024 * 1024 * 1024), 1u);
    const std::size_t cheap = grainForRowCost(10.0);
    const std::size_t mid = grainForRowCost(10000.0);
    EXPECT_GT(cheap, mid);
    EXPECT_GE(mid, 1u);
}

TEST(ParseThreadCount, PlainDecimalsClampTo256)
{
    EXPECT_EQ(parseThreadCount("1"), 1);
    EXPECT_EQ(parseThreadCount("4"), 4);
    EXPECT_EQ(parseThreadCount("04"), 4);
    EXPECT_EQ(parseThreadCount("256"), 256);
    EXPECT_EQ(parseThreadCount("257"), 256);
    EXPECT_EQ(parseThreadCount("99999999999999999999"), 256);
}

TEST(ParseThreadCount, NullOrEmptyIsUnset)
{
    EXPECT_EQ(parseThreadCount(nullptr), 0);
    EXPECT_EQ(parseThreadCount(""), 0);
}

TEST(ParseThreadCount, MalformedIsRejected)
{
    // Trailing garbage, words, zero, signs, spaces, other radixes:
    // atoi read "4abc" as 4 and "eight" / "0" as unset.
    for (const char *bad : {"4abc", "eight", "0", "000", "-4", "+4",
                            " 4", "4 ", "4.0", "0x4", "1e3"})
        EXPECT_THROW(parseThreadCount(bad), std::invalid_argument)
            << "'" << bad << "'";
}

TEST(ParseThreadCountDeath, MalformedEnvIsFatal)
{
    // Re-exec the child so the process-wide pool does not exist yet
    // and its first use reads the environment.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    EXPECT_EXIT(
        {
            setenv("SOFA_NUM_THREADS", "4abc", 1);
            ThreadPool::instance();
        },
        ::testing::ExitedWithCode(1), "SOFA_NUM_THREADS");
}

} // namespace
} // namespace sofa
