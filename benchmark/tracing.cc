#include "tracing.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "common/jsonwriter.h"
#include "model/model_workload.h"

namespace sofa {
namespace servingbench {

int
stageIndex(const char *name)
{
    for (int i = 0; name != nullptr && i < kStageSpans; ++i)
        if (std::strcmp(name, kStageSpanNames[i]) == 0)
            return i;
    return -1;
}

void
TraceLog::registerRequest(const serve::Request &r)
{
    std::lock_guard<std::mutex> lk(m_);
    for (int b = 0; b < r.work.batch; ++b)
        for (int h = 0; h < r.work.heads; ++h)
            seedToRequest_[headSeed(r.work.seed, b, h)] = r.id;
}

void
TraceLog::clearRuns()
{
    std::lock_guard<std::mutex> lk(m_);
    runs_.clear();
    commitSeconds_ = 0.0;
}

std::vector<RunTrace>
TraceLog::runs() const
{
    std::vector<RunTrace> out;
    {
        std::lock_guard<std::mutex> lk(m_);
        out = runs_;
    }
    std::sort(out.begin(), out.end(),
              [](const RunTrace &a, const RunTrace &b) {
                  return a.start < b.start;
              });
    return out;
}

double
TraceLog::commitSeconds() const
{
    std::lock_guard<std::mutex> lk(m_);
    return commitSeconds_;
}

void
TraceLog::describeRun(RunTrace &rec,
                      const std::vector<std::uint64_t> &seeds)
{
    std::lock_guard<std::mutex> lk(m_);
    const auto key = std::make_pair(rec.backend,
                                    std::this_thread::get_id());
    auto lane = lanes_.find(key);
    if (lane == lanes_.end())
        lane = lanes_.emplace(key, laneCount_[rec.backend]++).first;
    rec.lane = lane->second;
    for (std::uint64_t seed : seeds) {
        const auto it = seedToRequest_.find(seed);
        if (it != seedToRequest_.end() &&
            std::find(rec.requests.begin(), rec.requests.end(),
                      it->second) == rec.requests.end())
            rec.requests.push_back(it->second);
    }
}

void
TraceLog::commit(RunTrace rec)
{
    const double t0 = nowSeconds();
    std::lock_guard<std::mutex> lk(m_);
    runs_.push_back(std::move(rec));
    commitSeconds_ += nowSeconds() - t0;
}

namespace {

/** Forwards to the wrapped run, recording a span per step() and one
 * for finish(); commits the record when the run is destroyed. */
class TracingRun : public serve::BackendRun
{
  public:
    TracingRun(serve::Backend &owner,
               std::unique_ptr<serve::BackendRun> inner, TraceLog &log,
               RunTrace rec)
        : serve::BackendRun(owner, inner->tasks()),
          inner_(std::move(inner)), log_(log), rec_(std::move(rec))
    {
    }
    ~TracingRun() override { log_.commit(std::move(rec_)); }

    std::size_t stageCount() const override
    {
        return inner_->stageCount();
    }
    const char *nextStageName() const override
    {
        return inner_->nextStageName();
    }
    bool done() const override { return inner_->done(); }
    void step() override
    {
        const char *name = inner_->nextStageName();
        const double t0 = nowSeconds();
        inner_->step();
        const double t1 = nowSeconds();
        rec_.spans.push_back({name, t0, t1});
        rec_.overhead += nowSeconds() - t1;
    }
    void cancel(std::size_t i) override { inner_->cancel(i); }
    bool cancelled(std::size_t i) const override
    {
        return inner_->cancelled(i);
    }
    double modeledTaskSeconds(std::size_t i) const override
    {
        return inner_->modeledTaskSeconds(i);
    }

  protected:
    EngineResult finishImpl() override
    {
        const double t0 = nowSeconds();
        EngineResult res = inner_->finish();
        const double t1 = nowSeconds();
        rec_.spans.push_back({kStageSpanNames[kStageSpans - 1], t0, t1});
        rec_.end = t1;
        rec_.overhead += nowSeconds() - t1;
        return res;
    }

  private:
    std::unique_ptr<serve::BackendRun> inner_;
    TraceLog &log_;
    RunTrace rec_;
};

class TracingBackend : public serve::Backend
{
  public:
    TracingBackend(std::shared_ptr<serve::Backend> inner, int index,
                   TraceLog &log)
        : serve::Backend(inner->name()), inner_(std::move(inner)),
          index_(index), log_(log)
    {
    }

    serve::BackendCapabilities capabilities() const override
    {
        return inner_->capabilities();
    }

  protected:
    std::unique_ptr<serve::BackendRun>
    beginRun(std::vector<HeadTask> tasks, double keep_factor) override
    {
        std::vector<std::uint64_t> seeds;
        seeds.reserve(tasks.size());
        for (const HeadTask &t : tasks)
            seeds.push_back(t.workload->spec.seed);
        auto inner = inner_->begin(std::move(tasks), keep_factor);
        RunTrace rec;
        rec.backend = index_;
        rec.start = nowSeconds();
        log_.describeRun(rec, seeds);
        rec.overhead = nowSeconds() - rec.start;
        return std::make_unique<TracingRun>(*this, std::move(inner),
                                            log_, std::move(rec));
    }

  private:
    std::shared_ptr<serve::Backend> inner_;
    int index_ = 0;
    TraceLog &log_;
};

} // namespace

void
traceBackends(serve::SchedulerConfig &cfg, TraceLog &log)
{
    if (cfg.backends.empty()) {
        // The scheduler's implicit fleet, made explicit so it can be
        // wrapped: one engine on the process-wide pool.
        serve::EngineBackendConfig ec;
        ec.engine = cfg.engine;
        cfg.backends.push_back(
            std::make_shared<serve::EngineBackend>(std::move(ec)));
    }
    for (std::size_t i = 0; i < cfg.backends.size(); ++i)
        cfg.backends[i] = std::make_shared<TracingBackend>(
            cfg.backends[i], static_cast<int>(i), log);
}

std::unordered_map<std::uint64_t, std::vector<const RunTrace *>>
runsByRequest(const std::vector<RunTrace> &runs)
{
    std::unordered_map<std::uint64_t, std::vector<const RunTrace *>>
        out;
    for (const RunTrace &r : runs) {
        if (r.end == 0.0)
            continue; // abandoned by a failure; its requests re-ran
        for (std::uint64_t id : r.requests)
            out[id].push_back(&r);
    }
    for (auto &kv : out)
        std::sort(kv.second.begin(), kv.second.end(),
                  [](const RunTrace *a, const RunTrace *b) {
                      return a->start < b->start;
                  });
    return out;
}

Breakdown
breakdown(const Sample &s, const std::vector<const RunTrace *> &runs)
{
    Breakdown b;
    b.total = s.resolved() - s.due;
    b.lag = s.sent - s.due;
    // Earlier runs are chunks of a split prefill; the time between
    // them (re-queued, sliced, re-dispatched) counts as queueing.
    double earlier_runs = 0.0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const RunTrace &r = *runs[k];
        double covered = r.overhead;
        for (const Span &sp : r.spans) {
            const int idx = stageIndex(sp.name);
            if (idx < 0)
                continue; // a stage this benchmark does not know
            b.stages[idx] += sp.t1 - sp.t0;
            covered += sp.t1 - sp.t0;
        }
        b.overhead += r.overhead;
        b.unattributed += (r.end - r.start) - covered;
        if (k + 1 < runs.size())
            earlier_runs += r.end - r.start;
    }
    const RunTrace &last = *runs.back();
    const double dispatch = s.sent + s.result.queueSeconds;
    b.queue = s.result.queueSeconds - earlier_runs;
    b.prepare = last.start - dispatch;
    b.resolve = s.resolved() - last.end;
    return b;
}

namespace {

/** Microseconds since @p origin, the trace-event timestamp unit. */
double
micros(double t, double origin)
{
    return (t - origin) * 1e6;
}

void
metaEvent(JsonWriter &j, const char *what, int pid, int tid,
          const std::string &name)
{
    j.beginObject()
        .key("name").value(what)
        .key("ph").value("M")
        .key("pid").value(pid)
        .key("tid").value(tid)
        .key("args").beginObject().key("name").value(name).endObject()
        .endObject();
}

/** Open a nestable async event object; the caller closes it. */
JsonWriter &
asyncEvent(JsonWriter &j, const char *name, const char *ph,
           std::uint64_t id, double ts)
{
    return j.beginObject()
        .key("name").value(name)
        .key("cat").value("request")
        .key("ph").value(ph)
        .key("id").value(id)
        .key("pid").value(0)
        .key("tid").value(0)
        .key("ts").value(ts);
}

} // namespace

bool
writeChromeTrace(const std::string &path,
                 const std::vector<Sample> &samples,
                 const std::vector<RunTrace> &runs,
                 const std::vector<std::string> &backend_names)
{
    double origin = std::numeric_limits<double>::infinity();
    for (const Sample &s : samples)
        origin = std::min(origin, s.due);
    for (const RunTrace &r : runs)
        origin = std::min(origin, r.start);

    JsonWriter j;
    j.beginObject().key("displayTimeUnit").value("ms");
    j.key("traceEvents").beginArray();
    metaEvent(j, "process_name", 0, 0, "driver");
    std::map<std::pair<int, int>, bool> lanes;
    for (const RunTrace &r : runs)
        lanes[{r.backend, r.lane}] = true;
    for (std::size_t b = 0; b < backend_names.size(); ++b)
        metaEvent(j, "process_name", static_cast<int>(b) + 1, 0,
                  "backend " + backend_names[b]);
    for (const auto &kv : lanes)
        metaEvent(j, "thread_name", kv.first.first + 1,
                  kv.first.second,
                  "lane " + std::to_string(kv.first.second));

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunTrace &r = runs[i];
        for (const Span &sp : r.spans) {
            j.beginObject()
                .key("name").value(sp.name != nullptr ? sp.name : "?")
                .key("cat").value("stage")
                .key("ph").value("X")
                .key("pid").value(r.backend + 1)
                .key("tid").value(r.lane)
                .key("ts").value(micros(sp.t0, origin))
                .key("dur").value((sp.t1 - sp.t0) * 1e6)
                .key("args").beginObject()
                .key("run").value(static_cast<std::int64_t>(i))
                .key("requests").beginArray();
            for (std::uint64_t id : r.requests)
                j.value(id);
            j.endArray().endObject().endObject();
        }
    }

    const auto by_request = runsByRequest(runs);
    for (const Sample &s : samples) {
        const std::uint64_t id = s.request.id;
        asyncEvent(j, "request", "b", id, micros(s.due, origin))
            .key("args").beginObject()
            .key("request").value(id)
            .key("kind").value(serve::requestKindName(s.request.kind()))
            .key("outcome").value(serve::outcomeName(s.result.outcome))
            .endObject().endObject();
        const double dispatch = s.sent + s.result.queueSeconds;
        asyncEvent(j, "queue", "b", id, micros(s.sent, origin))
            .endObject();
        asyncEvent(j, "queue", "e", id, micros(dispatch, origin))
            .endObject();
        const auto it = by_request.find(id);
        if (it != by_request.end()) {
            const RunTrace &last = *it->second.back();
            asyncEvent(j, "prepare", "b", id, micros(dispatch, origin))
                .endObject();
            asyncEvent(j, "prepare", "e", id,
                       micros(last.start, origin))
                .endObject();
            asyncEvent(j, "resolve", "b", id, micros(last.end, origin))
                .endObject();
            asyncEvent(j, "resolve", "e", id,
                       micros(s.resolved(), origin))
                .endObject();
        }
        asyncEvent(j, "request", "e", id, micros(s.resolved(), origin))
            .endObject();
    }
    j.endArray().endObject();
    return j.writeFile(path);
}

} // namespace servingbench
} // namespace sofa
