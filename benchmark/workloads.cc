#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "model/config.h"

namespace sofa {
namespace servingbench {

namespace {

std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ mix64(b));
}

// Salts keep the workload-seed, kind, tenant and arrival streams
// apart.
constexpr std::uint64_t kRequestSalt = 0x5EED5EEDull;
constexpr std::uint64_t kKindSalt = 0xB10CB10Cull;
constexpr std::uint64_t kTenantSalt = 0x7E4A47ull;
constexpr std::uint64_t kArrivalSalt = 0xA77A77ull;
constexpr std::uint64_t kWarmupSeed = 0x57A27ull;
constexpr std::uint64_t kWarmupIdBase = 1ull << 40;

/** Where a stream position falls in its block (see blockSlot). */
struct BlockSlot
{
    int category = 0;
    int stratum = 0; ///< in [0, strata)
    int strata = 1;  ///< members of the category per block
};

/**
 * Stream positions come in blocks of sum(counts): each block holds
 * exactly counts[c] positions of category c in a seeded shuffled
 * order, and the members of one category get distinct strata in a
 * seeded order, so a continuous draw made by stratum (stratified())
 * covers its whole range in every block.
 */
BlockSlot
blockSlot(std::uint64_t seed, std::uint64_t index,
          const std::vector<int> &counts)
{
    std::vector<int> cats;
    for (std::size_t c = 0; c < counts.size(); ++c)
        cats.insert(cats.end(), static_cast<std::size_t>(counts[c]),
                    static_cast<int>(c));
    const std::uint64_t block = index / cats.size();
    const std::size_t pos = index % cats.size();
    Rng rng(mix(seed, block));
    rng.shuffle(cats);
    BlockSlot s;
    s.category = cats[pos];
    s.strata = counts[static_cast<std::size_t>(s.category)];
    const int rank = static_cast<int>(
        std::count(cats.begin(), cats.begin() + pos, s.category));
    std::vector<int> order(static_cast<std::size_t>(s.strata));
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    Rng strata_rng(mix(seed + 1 + static_cast<std::uint64_t>(s.category),
                       block));
    strata_rng.shuffle(order);
    s.stratum = order[static_cast<std::size_t>(rank)];
    return s;
}

/** A uniform integer in [lo, hi] drawn within @p s's stratum. */
int
stratified(Rng &rng, const BlockSlot &s, int lo, int hi)
{
    const double width =
        static_cast<double>(hi - lo + 1) / static_cast<double>(s.strata);
    const int v = lo + static_cast<int>((s.stratum + rng.uniform()) * width);
    return std::min(hi, v);
}

ModelWorkloadSpec
baseSpec(int heads, std::uint64_t seed)
{
    static const DistMixture mixture = models::llama7b().mixture;
    ModelWorkloadSpec s;
    s.batch = 1;
    s.heads = heads;
    s.headDim = 64;
    s.tokenDim = 128;
    s.mixture = mixture;
    s.seed = seed;
    return s;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = [] {
        std::vector<Workload> t(4);
        t[0].name = "prefill_long";
        t[0].mix = Mix::PrefillLong;
        t[0].clients = 2;

        t[1].name = "decode_stream";
        t[1].mix = Mix::DecodeStream;
        t[1].clients = 4;

        // The gated 30 r/s phase keeps the 4-core host about a third
        // busy, so queueing shows without turning host-speed swings
        // into runaway backlogs; 45 r/s probes toward capacity yet
        // drains within the deadline even when the host is slow.
        t[2].name = "mixed_slo";
        t[2].mix = Mix::Mixed;
        t[2].phases = {{15.0, 6.0}, {30.0, 20.0}, {45.0, 6.0}};
        t[2].gatedPhase = 1;

        t[3].name = "fleet_disagg";
        t[3].mix = Mix::Mixed;
        t[3].phases = {{30.0, 1.0}};
        t[3].fleet = true;
        return t;
    }();
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

serve::SchedulerConfig
schedulerConfig(const Workload &w)
{
    serve::SchedulerConfig cfg;
    cfg.engine.pipeline.topkFrac = 0.2;
    cfg.engine.computeQuality = false;
    cfg.faultsFromEnv = false;
    if (w.mix == Mix::DecodeStream) {
        // Sized so only idle residents are evicted: no cold runs.
        cfg.kvPool.pages = 4096;
        cfg.kvPool.pageTokens = 16;
    }
    if (w.mix == Mix::Mixed) {
        // About one eviction per request at the gated rate.
        cfg.kvPool.pages = 1024;
        cfg.kvPool.pageTokens = 16;
    }
    if (w.name == "mixed_slo") {
        cfg.policy = serve::SchedulingPolicy::DRR;
        cfg.drrQuantumHeads = 4;
        cfg.prefillChunkRows = 128;
        cfg.maxQueue = 256;
        // Far above any normal latency (p95 under 0.1 s), so only a
        // stall of the host could make a request miss it.
        cfg.defaultDeadlineSeconds = 5.0;
    }
    if (w.fleet) {
        // Prefill and decode each get an engine on an owned 2-thread
        // pool; the KV pool lives on the decode shard only.
        const auto engine = [&](const char *name, bool prefill) {
            serve::EngineBackendConfig ec;
            ec.engine = cfg.engine;
            ec.threads = kEngineThreads / 2;
            ec.caps.supportsPrefill = prefill;
            ec.caps.supportsDecode = !prefill;
            ec.name = name;
            return std::make_shared<serve::EngineBackend>(ec);
        };
        cfg.backends = {engine("prefill", true), engine("decode", false)};
        cfg.routing = serve::RoutingPolicy::Disaggregated;
    }
    return cfg;
}

serve::Request
makeRequest(const Workload &w, std::uint64_t seed, std::uint64_t index)
{
    serve::Request r;
    r.id = index;
    const std::uint64_t work_seed = mix(seed ^ kRequestSalt, index);
    Rng rng(work_seed);
    switch (w.mix) {
      case Mix::PrefillLong: {
        static const int kSeq[] = {256, 512, 768};
        const BlockSlot s = blockSlot(seed ^ kKindSalt, index, {1, 1, 1});
        r.work = baseSpec(4, work_seed);
        r.work.seq = kSeq[s.category];
        r.work.queries = r.work.seq;
        break;
      }
      case Mix::DecodeStream: {
        // Per 12 requests: 9 plain and 3 speculative (gamma 4) steps.
        const BlockSlot s = blockSlot(seed ^ kKindSalt, index, {9, 3});
        r.work = baseSpec(4, work_seed);
        r.work.pastLen = stratified(rng, s, 512, 1536);
        r.work.newTokens = s.category == 1 ? 4 : 1;
        break;
      }
      case Mix::Mixed: {
        // Per 40 requests: 12 prefills, 21 plain decodes and 7
        // speculative (gamma 4) decodes, 10 for each tenant.
        const BlockSlot s =
            blockSlot(seed ^ kKindSalt, index, {12, 21, 7});
        r.work = baseSpec(2, work_seed);
        if (s.category == 0) {
            r.work.seq = stratified(rng, s, 128, 384);
            r.work.queries = r.work.seq;
        } else {
            r.work.pastLen = stratified(rng, s, 256, 768);
            r.work.newTokens = s.category == 2 ? 4 : 1;
        }
        r.tenant =
            blockSlot(seed ^ kTenantSalt, index, {10, 10, 10, 10})
                .category;
        break;
      }
    }
    return r;
}

serve::Request
warmupRequest(const Workload &w, int i)
{
    serve::Request r =
        makeRequest(w, kWarmupSeed, static_cast<std::uint64_t>(i));
    r.id = kWarmupIdBase + static_cast<std::uint64_t>(i);
    return r;
}

std::vector<double>
phaseEnds(const Workload &w, double seconds)
{
    double total_weight = 0.0;
    for (const Phase &p : w.phases)
        total_weight += p.weight;
    std::vector<double> ends;
    double acc = 0.0;
    for (const Phase &p : w.phases) {
        acc += p.weight;
        ends.push_back(seconds * acc / total_weight);
    }
    return ends;
}

std::vector<Arrival>
arrivalSchedule(const Workload &w, std::uint64_t seed, double seconds)
{
    const std::vector<double> ends = phaseEnds(w, seconds);
    Rng rng(mix(seed ^ kArrivalSalt, 0));
    std::vector<Arrival> out;
    double start = 0.0;
    for (std::size_t p = 0; p < ends.size(); ++p) {
        const double rate = w.phases[p].rate;
        const long total =
            std::max(1L, std::lround(rate * (ends[p] - start)));
        long issued = 0;
        for (double slot = start; issued < total; slot += 1.0) {
            const double slot_end = std::min(ends[p], slot + 1.0);
            const long upto =
                slot_end >= ends[p]
                    ? total
                    : std::min(total,
                               std::lround(rate * (slot_end - start)));
            std::vector<double> due(
                static_cast<std::size_t>(upto - issued));
            for (double &d : due)
                d = rng.uniform(slot, slot_end);
            std::sort(due.begin(), due.end());
            for (double d : due)
                out.push_back({d, static_cast<int>(p)});
            issued = upto;
        }
        start = ends[p];
    }
    return out;
}

double
latencyLimitSeconds(serve::RequestKind kind)
{
    return kind == serve::RequestKind::Prefill ? 0.25 : 0.10;
}

} // namespace servingbench
} // namespace sofa
