/**
 * @file
 * Load drivers over the public serve::Scheduler API. The closed loop
 * runs one thread per client, each sending its next request when the
 * previous one resolves; the open loop is one generator thread
 * submitting each request at its due time whatever the backlog.
 * Both stop sending after the run's seconds and wait for every
 * request they sent.
 *
 * Units: every time is steady-clock seconds (nowSeconds()).
 */

#ifndef SOFA_BENCHMARK_DRIVER_H
#define SOFA_BENCHMARK_DRIVER_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "serve/scheduler.h"
#include "workloads.h"

namespace sofa {
namespace servingbench {

inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One sent request and how it left the scheduler. */
struct Sample
{
    serve::Request request;
    int phase = 0;
    /** When the request was due: its arrival time (open loop) or
     * when its client saw the previous result (closed loop). */
    double due = 0.0;
    double sent = 0.0; ///< just before Scheduler::submit
    /** The result; `engine` is emptied unless keepEngine asked to
     * keep it, so a run holds few output matrices at once. */
    serve::RequestResult result;

    /** When the scheduler resolved the request. */
    double resolved() const { return sent + result.totalSeconds; }
};

struct DriverHooks
{
    /** Called before each submit (trace registration); optional. */
    std::function<void(const serve::Request &)> beforeSubmit;
    /** Whether to keep the request's engine result; optional. */
    std::function<bool(const serve::Request &)> keepEngine;
};

/** A driven run: when sending started, and every sent request in
 * request-index order. */
struct Run
{
    double start = 0.0;
    std::vector<Sample> samples;
};

/** Closed loop: @p w.clients clients for @p seconds. */
Run runClosedLoop(serve::Scheduler &sched, const Workload &w,
                  std::uint64_t seed, double seconds,
                  const DriverHooks &hooks);

/** Open loop over arrivalSchedule(w, seed, seconds). */
Run runOpenLoop(serve::Scheduler &sched, const Workload &w,
                std::uint64_t seed, double seconds,
                const DriverHooks &hooks);

} // namespace servingbench
} // namespace sofa

#endif // SOFA_BENCHMARK_DRIVER_H
