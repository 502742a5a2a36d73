#include "replay.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "common/threadpool.h"
#include "core/engine.h"
#include "model/model_workload.h"
#include "tensor/kernels.h"

namespace sofa {
namespace servingbench {

double
kernelGflops()
{
    constexpr std::size_t n = 256;
    Rng rng(0xCA11B8ull);
    MatF a(n, n), b(n, n);
    for (float &x : a.data())
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float &x : b.data())
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    double best = std::numeric_limits<double>::infinity();
    float sink = 0.0f;
    // Untimed warm-up, so the core is at speed when timing starts.
    for (const double t0 = nowSeconds(); nowSeconds() - t0 < 0.05;)
        sink += matmulNTBlocked(a, b)(0, 0);
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = nowSeconds();
        const MatF c = matmulNTBlocked(a, b);
        best = std::min(best, nowSeconds() - t0);
        sink += c(0, 0);
    }
    // Keeps the products observable so they cannot be elided.
    if (sink == std::numeric_limits<float>::infinity())
        best += 1.0;
    return 2.0 * n * n * n / best / 1e9;
}

std::vector<HeadTask>
headTasks(const ModelWorkload &mw, bool cold)
{
    std::vector<HeadTask> tasks;
    for (int b = 0; b < mw.batch(); ++b) {
        for (int h = 0; h < mw.heads(); ++h) {
            HeadTask t;
            t.workload = &mw.head(b, h);
            t.batch = b;
            t.head = h;
            t.pastLen = mw.spec.isDecode() && !cold ? mw.spec.pastLen : 0;
            tasks.push_back(t);
        }
    }
    return tasks;
}

double
ReplayResult::engineSeconds(int c) const
{
    double s = 0.0;
    for (double x : stageSeconds[c])
        s += x;
    return s;
}

ReplayResult
replayLayers(const std::vector<serve::Request> &sample,
             const EngineConfig &engine)
{
    std::vector<std::unique_ptr<ThreadPool>> pools;
    std::vector<std::unique_ptr<Engine>> engines;
    for (int threads : kReplayThreadCounts) {
        pools.push_back(std::make_unique<ThreadPool>(threads));
        EngineConfig cfg = engine;
        cfg.pool = pools.back().get();
        engines.push_back(std::make_unique<Engine>(cfg));
    }

    ReplayResult out;
    for (const serve::Request &r : sample) {
        const double g0 = nowSeconds();
        const ModelWorkload mw = generateModelWorkload(r.work);
        out.generateSeconds += nowSeconds() - g0;

        const std::vector<HeadTask> tasks = headTasks(mw, false);
        // Thread counts alternate per request, so slow drift of the
        // host spreads over all of them alike.
        for (int c = 0; c < kReplayConfigs; ++c) {
            EngineRun run(*engines[static_cast<std::size_t>(c)], tasks);
            while (!run.done()) {
                const int idx = stageIndex(run.nextStageName());
                const double t0 = nowSeconds();
                run.step();
                if (idx >= 0)
                    out.stageSeconds[c][idx] += nowSeconds() - t0;
            }
            const double t0 = nowSeconds();
            const EngineResult res = run.finish();
            out.stageSeconds[c][kStageSpans - 1] += nowSeconds() - t0;
            if (c == 0) {
                out.predictionOps += res.predictionOps.total();
                out.sortOps += res.sortOps.total();
                out.formalOps += res.formalOps.total();
                out.keysGenerated += res.keysGenerated;
                out.keysCached += res.keysCached;
            }
        }
        ++out.requests;
    }
    return out;
}

} // namespace servingbench
} // namespace sofa
