#include "core/engine.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "common/threadpool.h"
#include "core/dlzs.h"
#include "core/sads.h"
#include "core/sufa.h"
#include "sparsity/mask.h"

namespace sofa {

OpCounter
EngineResult::totalOps() const
{
    OpCounter t;
    t += predictionOps;
    t += sortOps;
    t += formalOps;
    return t;
}

/** Per-run scratch: the task list plus per-head intermediates. */
struct EngineState
{
    const EngineConfig &cfg;
    ThreadPool &pool;
    const std::vector<HeadTask> &tasks;

    std::vector<int> keep;              ///< per-head k
    std::vector<DlzsPrediction> preds;  ///< DLZS output, freed by SADS
    std::vector<SadsResult> sads;       ///< SADS stage output
    std::vector<HeadResult> heads;      ///< results being assembled
    std::vector<char> cancelled;        ///< per-task cancel flags
};

namespace {

/** A (head, query-row range) work item for the row-tiled stages. */
struct RowUnit
{
    std::size_t head;
    std::size_t begin;
    std::size_t end;
};

/** Approximate arithmetic cost of one head's prediction/KV work. */
double
headCost(const AttentionWorkload &w)
{
    const double seq = static_cast<double>(w.spec.seq);
    const double rows = static_cast<double>(w.q.rows());
    const double dim = static_cast<double>(w.spec.headDim);
    return seq * static_cast<double>(w.spec.tokenDim) * dim +
           rows * seq * dim;
}

/** Cost estimates for whole-head units. */
std::vector<double>
headCosts(const EngineState &st)
{
    std::vector<double> cost(st.tasks.size());
    for (std::size_t i = 0; i < st.tasks.size(); ++i)
        cost[i] = headCost(*st.tasks[i].workload);
    return cost;
}

/** Cost estimates for row-tile units (rows x context width). */
std::vector<double>
unitCosts(const EngineState &st, const std::vector<RowUnit> &units)
{
    std::vector<double> cost(units.size());
    for (std::size_t u = 0; u < units.size(); ++u) {
        const RowUnit &ru = units[u];
        cost[u] = static_cast<double>(ru.end - ru.begin) *
                  static_cast<double>(
                      st.tasks[ru.head].workload->spec.seq);
    }
    return cost;
}

/**
 * Run fn(unit_id) once per unit across the pool, one unit per chunk,
 * claimed heaviest-first by @p cost: the pool's chunk counter then
 * starts the long poles early and back-fills with cheap units (the
 * Tailors lesson: size for the common case, recover
 * data-dependently). The order only decides *scheduling* — per-unit
 * outputs and tallies are still indexed and merged by the canonical
 * unit id, so results are bit-exact for any order and thread count.
 */
template <typename Fn>
void
forEachUnit(EngineState &st, const std::vector<double> &cost,
            const Fn &fn)
{
    std::vector<std::size_t> order(cost.size());
    for (std::size_t u = 0; u < order.size(); ++u)
        order[u] = u;
    std::stable_sort(order.begin(), order.end(),
                     [&cost](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    st.pool.parallelFor(order.size(), 1,
                        [&fn, &order](std::size_t u, std::size_t, int) {
                            fn(order[u]);
                        });
}

/** Row tiles of every head, in (head, row) order, the config's
 * rowTile rows per unit clamped to each head's actual row count — a
 * tiny head yields exactly one full-range unit instead of an
 * oversized tile request distorting the unit accounting. */
std::vector<RowUnit>
rowUnits(const EngineState &st)
{
    const std::size_t requested = static_cast<std::size_t>(
        std::max(1, st.cfg.rowTile));
    std::vector<RowUnit> units;
    for (std::size_t i = 0; i < st.tasks.size(); ++i) {
        const std::size_t rows = st.tasks[i].workload->q.rows();
        if (rows == 0)
            continue; // never enqueue an empty unit
        const std::size_t tile = std::min(requested, rows);
        for (std::size_t b = 0; b < rows; b += tile)
            units.push_back({i, b, std::min(rows, b + tile)});
    }
    return units;
}

/** Stage 1: DLZS prediction (K-hat then A-hat), one unit per head. */
void
runDlzs(EngineState &st)
{
    forEachUnit(st, headCosts(st), [&st](std::size_t i) {
        if (st.cancelled[i])
            return;
        const AttentionWorkload &w = *st.tasks[i].workload;
        st.preds[i] = dlzsPredict(w.tokens, w.wk, w.q);
        st.heads[i].result.predictionOps = st.preds[i].ops;
    });
}

/** Stage 2: SADS distributed top-k, one unit per row tile. */
void
runSads(EngineState &st)
{
    const std::vector<RowUnit> units = rowUnits(st);
    std::vector<OpCounter> unit_ops(units.size());
    forEachUnit(st, unitCosts(st, units), [&](std::size_t u) {
        const RowUnit &ru = units[u];
        if (st.cancelled[ru.head])
            return;
        sadsTopKRows(st.preds[ru.head].scoresHat, st.keep[ru.head],
                     st.cfg.pipeline.sads, ru.begin, ru.end,
                     &st.sads[ru.head].rows, &unit_ops[u]);
    });
    // Per-unit tallies merge with integer addition in unit order —
    // order-independent, so equal to a serial run.
    for (std::size_t u = 0; u < units.size(); ++u)
        st.sads[units[u].head].ops += unit_ops[u];
    for (std::size_t i = 0; i < st.tasks.size(); ++i) {
        if (st.cancelled[i])
            continue;
        st.heads[i].result.sortOps = st.sads[i].ops;
        st.heads[i].result.selections = st.sads[i].selections();
    }
    // Nothing reads A-hat or K-hat after selection: free them here
    // (cancelled heads too) rather than hold T x S floats per head
    // through the KV and SU-FA steps.
    st.preds.clear();
}

/** Stage 3a: on-demand KV generation against the cache state. */
void
runKv(EngineState &st)
{
    forEachUnit(st, headCosts(st), [&st](std::size_t i) {
        if (st.cancelled[i])
            return;
        const HeadTask &task = st.tasks[i];
        const AttentionWorkload &w = *task.workload;
        HeadResult &hr = st.heads[i];
        TopkMask mask = TopkMask::fromSelections(hr.result.selections,
                                                 w.spec.seq);
        const std::vector<int> required = mask.requiredKeys();
        // Keys below pastLen are KV-cache hits; only the rest are
        // projected from tokens.
        std::int64_t cached = 0;
        for (int key : required)
            cached += key < task.pastLen ? 1 : 0;
        hr.keysCached = cached;
        hr.result.keysGenerated =
            static_cast<std::int64_t>(required.size()) - cached;
        hr.result.formalOps += kvGenerationOps(
            hr.result.keysGenerated, w.spec.tokenDim, w.spec.headDim);
    });
}

/** Stage 3b: SU-FA formal compute, one unit per row tile. */
void
runSufa(EngineState &st)
{
    for (std::size_t i = 0; i < st.tasks.size(); ++i) {
        if (st.cancelled[i])
            continue;
        const AttentionWorkload &w = *st.tasks[i].workload;
        st.heads[i].result.output = MatF(w.q.rows(), w.q.cols(), 0.0f);
    }
    const std::vector<RowUnit> units = rowUnits(st);
    std::vector<OpCounter> unit_ops(units.size());
    std::vector<std::int64_t> unit_viol(units.size(), 0);
    std::vector<std::int64_t> unit_tiles(units.size(), 0);
    forEachUnit(st, unitCosts(st, units), [&](std::size_t u) {
        const RowUnit &ru = units[u];
        if (st.cancelled[ru.head])
            return;
        const AttentionWorkload &w = *st.tasks[ru.head].workload;
        sufaAttentionRows(w.q, w.k, w.v,
                          st.heads[ru.head].result.selections,
                          st.cfg.pipeline.sufa, ru.begin, ru.end,
                          &st.heads[ru.head].result.output,
                          &unit_ops[u], &unit_viol[u], &unit_tiles[u]);
    });
    for (std::size_t u = 0; u < units.size(); ++u) {
        HeadResult &hr = st.heads[units[u].head];
        hr.result.formalOps += unit_ops[u];
        hr.result.maxViolations += unit_viol[u];
        hr.sufaTiles += unit_tiles[u];
    }
}

/** Stage 4: quality metrics vs the dense reference, per head. */
void
runQuality(EngineState &st)
{
    if (!st.cfg.computeQuality)
        return;
    forEachUnit(st, headCosts(st), [&st](std::size_t i) {
        if (st.cancelled[i])
            return;
        fillPipelineQuality(*st.tasks[i].workload, st.keep[i],
                            st.heads[i].result);
    });
}

/** The pipeline, in execution order. The names are part of the
 * interface: fault plans, EngineRun::nextStageName() spans and
 * reports all match on them. */
struct StageEntry
{
    const char *name;
    void (*run)(EngineState &);
};
constexpr StageEntry kStages[] = {
    {"dlzs_predict", runDlzs},
    {"sads_topk", runSads},
    {"kv_generate", runKv},
    {"sufa_attention", runSufa},
    {"quality", runQuality},
};
constexpr std::size_t kStageCount = std::size(kStages);

} // namespace

Engine::Engine(EngineConfig cfg) : cfg_(cfg)
{
    SOFA_ASSERT(cfg_.pipeline.topkFrac > 0.0 &&
                cfg_.pipeline.topkFrac <= 1.0);
    SOFA_ASSERT(cfg_.rowTile >= 1);
}

std::vector<std::string>
Engine::stageNames()
{
    std::vector<std::string> names;
    names.reserve(kStageCount);
    for (const StageEntry &s : kStages)
        names.push_back(s.name);
    return names;
}

EngineResult
Engine::run(const ModelWorkload &mw) const
{
    std::vector<HeadTask> tasks;
    tasks.reserve(mw.size());
    for (int b = 0; b < mw.batch(); ++b) {
        for (int h = 0; h < mw.heads(); ++h) {
            HeadTask t;
            t.workload = &mw.head(b, h);
            t.batch = b;
            t.head = h;
            t.pastLen = mw.spec.isDecode() ? mw.spec.pastLen : 0;
            tasks.push_back(t);
        }
    }
    return run(tasks);
}

EngineResult
Engine::run(const std::vector<HeadTask> &tasks) const
{
    return EngineRun(*this, tasks).finish();
}

EngineRun::EngineRun(const Engine &engine, std::vector<HeadTask> tasks)
    : engine_(engine), tasks_(std::move(tasks))
{
    const EngineConfig &cfg = engine_.config();
    ThreadPool &pool =
        cfg.pool != nullptr ? *cfg.pool : ThreadPool::instance();
    state_ = std::make_unique<EngineState>(
        EngineState{cfg, pool, tasks_, {}, {}, {}, {}, {}});
    EngineState &st = *state_;
    st.keep.resize(tasks_.size());
    st.preds.resize(tasks_.size());
    st.sads.resize(tasks_.size());
    st.heads.resize(tasks_.size());
    st.cancelled.assign(tasks_.size(), 0);
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        const HeadTask &t = tasks_[i];
        SOFA_ASSERT(t.workload != nullptr);
        SOFA_ASSERT(t.pastLen >= 0 &&
                    t.pastLen <= t.workload->spec.seq);
        st.keep[i] = pipelineKeepCount(cfg.pipeline.topkFrac,
                                       t.workload->spec.seq);
        st.sads[i].rows.resize(t.workload->q.rows());
        st.heads[i].batch = t.batch;
        st.heads[i].head = t.head;
    }
}

EngineRun::~EngineRun() = default;

std::size_t
EngineRun::stageCount() const
{
    return kStageCount;
}

bool
EngineRun::done() const
{
    return next_ >= kStageCount;
}

const char *
EngineRun::nextStageName() const
{
    return done() ? nullptr : kStages[next_].name;
}

void
EngineRun::step()
{
    SOFA_ASSERT(!done());
    kStages[next_].run(*state_);
    ++next_;
}

void
EngineRun::cancel(std::size_t i)
{
    SOFA_ASSERT(i < tasks_.size());
    state_->cancelled[i] = 1;
}

bool
EngineRun::cancelled(std::size_t i) const
{
    SOFA_ASSERT(i < tasks_.size());
    return state_->cancelled[i] != 0;
}

EngineResult
EngineRun::finish()
{
    while (!done())
        step();
    return aggregateHeadResults(std::move(state_->heads));
}

EngineResult
aggregateHeadResults(std::vector<HeadResult> heads)
{
    EngineResult res;
    res.heads = std::move(heads);
    double mass = 0.0, recall = 0.0, loss = 0.0;
    for (const HeadResult &hr : res.heads) {
        res.predictionOps += hr.result.predictionOps;
        res.sortOps += hr.result.sortOps;
        res.formalOps += hr.result.formalOps;
        res.keysGenerated += hr.result.keysGenerated;
        res.keysCached += hr.keysCached;
        res.maxViolations += hr.result.maxViolations;
        mass += hr.result.massRecall;
        recall += hr.result.topkRecall;
        loss += hr.result.accuracyLossPct;
        res.maxOutputRelError =
            std::max(res.maxOutputRelError, hr.result.outputRelError);
    }
    if (!res.heads.empty()) {
        const double n = static_cast<double>(res.heads.size());
        res.meanMassRecall = mass / n;
        res.meanTopkRecall = recall / n;
        res.meanAccuracyLossPct = loss / n;
    }
    return res;
}

EngineResult
runEngine(const ModelWorkload &mw, const EngineConfig &cfg)
{
    return Engine(cfg).run(mw);
}

} // namespace sofa
