#include "driver.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <thread>
#include <utility>

namespace sofa {
namespace servingbench {

namespace {

/** Submit @p s.request and stamp the send time. */
std::future<serve::RequestResult>
send(serve::Scheduler &sched, Sample &s, const DriverHooks &hooks)
{
    if (hooks.beforeSubmit)
        hooks.beforeSubmit(s.request);
    s.sent = nowSeconds();
    return sched.submit(s.request);
}

void
collect(Sample &s, std::future<serve::RequestResult> &fut,
        const DriverHooks &hooks)
{
    s.result = fut.get();
    if (!hooks.keepEngine || !hooks.keepEngine(s.request))
        s.result.engine = EngineResult{};
}

} // namespace

Run
runClosedLoop(serve::Scheduler &sched, const Workload &w,
              std::uint64_t seed, double seconds,
              const DriverHooks &hooks)
{
    std::atomic<std::uint64_t> next{0};
    std::vector<std::vector<Sample>> per_client(
        static_cast<std::size_t>(w.clients));
    Run run;
    run.start = nowSeconds();
    const double start = run.start;
    const auto client = [&](std::vector<Sample> &out) {
        double due = start;
        while (nowSeconds() - start < seconds) {
            Sample s;
            s.request = makeRequest(w, seed, next.fetch_add(1));
            s.due = due;
            auto fut = send(sched, s, hooks);
            collect(s, fut, hooks);
            due = nowSeconds();
            out.push_back(std::move(s));
        }
    };
    std::vector<std::thread> threads;
    for (auto &out : per_client)
        threads.emplace_back(client, std::ref(out));
    for (auto &t : threads)
        t.join();

    for (auto &out : per_client)
        for (Sample &s : out)
            run.samples.push_back(std::move(s));
    std::sort(run.samples.begin(), run.samples.end(),
              [](const Sample &a, const Sample &b) {
                  return a.request.id < b.request.id;
              });
    return run;
}

Run
runOpenLoop(serve::Scheduler &sched, const Workload &w,
            std::uint64_t seed, double seconds,
            const DriverHooks &hooks)
{
    const std::vector<Arrival> arrivals =
        arrivalSchedule(w, seed, seconds);
    Run run;
    std::vector<Sample> &all = run.samples;
    all.resize(arrivals.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        all[i].request = makeRequest(w, seed, i);
        all[i].phase = arrivals[i].phase;
    }
    // Results are collected oldest-first while sending, so finished
    // engine results are freed as the run goes; latency comes from
    // the scheduler's own stamps, not from when they are collected.
    std::deque<std::pair<std::size_t, std::future<serve::RequestResult>>>
        pending;
    run.start = nowSeconds();
    for (std::size_t i = 0; i < all.size(); ++i) {
        Sample &s = all[i];
        s.due = run.start + arrivals[i].due;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(s.due))));
        pending.emplace_back(i, send(sched, s, hooks));
        while (!pending.empty() &&
               pending.front().second.wait_for(std::chrono::seconds(
                   0)) == std::future_status::ready) {
            collect(all[pending.front().first], pending.front().second,
                    hooks);
            pending.pop_front();
        }
    }
    for (auto &p : pending)
        collect(all[p.first], p.second, hooks);
    return run;
}

} // namespace servingbench
} // namespace sofa
