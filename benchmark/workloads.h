/**
 * @file
 * The benchmark's four serving workloads: each one's scheduler
 * configuration, load shape (closed loop with a fixed client count,
 * or open-loop Poisson phases) and seeded request stream. README.md
 * says why each workload exists and which layers it stresses.
 *
 * Requests are a pure function of (workload, seed, index), so a run
 * regenerates any request on its own. Categorical choices (prompt
 * length class, prefill/decode kind, speculative gamma, tenant) are
 * drawn in shuffled blocks with exact proportions, and lengths are
 * drawn one per stratum of their range within a block, so two seeds
 * differ in order and detail, not in how much work they carry.
 *
 * Units: rates in requests per second, times in seconds, shapes in
 * tokens (T = query rows, S = context length).
 */

#ifndef SOFA_BENCHMARK_WORKLOADS_H
#define SOFA_BENCHMARK_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/scheduler.h"

namespace sofa {
namespace servingbench {

/** Which request stream a workload draws from. */
enum class Mix {
    PrefillLong,  ///< 4-head prefills, T = S in {256, 512, 768}
    DecodeStream, ///< 4-head decode steps, pastLen in [512, 1536]
    Mixed,        ///< 2-head, 30 % prefill / 70 % decode, 4 tenants
};

/** One open-loop phase: Poisson arrivals at @c rate. */
struct Phase
{
    double rate = 0.0;   ///< requests per second
    double weight = 1.0; ///< relative share of the run's seconds
};

struct Workload
{
    std::string name;
    Mix mix = Mix::PrefillLong;
    /** Closed loop: clients that each keep one request outstanding.
     * 0 means open loop over @c phases. */
    int clients = 0;
    std::vector<Phase> phases;
    /** The open-loop phase the end-to-end metrics cover. */
    int gatedPhase = 0;
    /** Two owned-pool EngineBackends with Disaggregated routing
     * instead of the scheduler's implicit single backend. */
    bool fleet = false;

    bool openLoop() const { return clients == 0; }
};

/** Engine threads every workload runs with. */
constexpr int kEngineThreads = 4;
/** Unmeasured warm-up requests per set-up. */
constexpr int kWarmupRequests = 4;

const std::vector<Workload> &workloads();
/** The workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** The scheduler configuration @p w runs under. */
serve::SchedulerConfig schedulerConfig(const Workload &w);

/** Request @p index of @p w's stream for @p seed (id = index). */
serve::Request makeRequest(const Workload &w, std::uint64_t seed,
                           std::uint64_t index);

/** Warm-up request @p i: drawn from a fixed seed, so set-up does the
 * same work on every run, with ids disjoint from measured ones. */
serve::Request warmupRequest(const Workload &w, int i);

/** Where each of @p w's open-loop phases ends, in seconds from the
 * start of a run of @p seconds (phases split it by weight). */
std::vector<double> phaseEnds(const Workload &w, double seconds);

/** Open-loop arrival of request index i (the vector's i-th entry). */
struct Arrival
{
    double due = 0.0; ///< seconds from the start of the run
    int phase = 0;
};

/**
 * Poisson-like arrivals over @p seconds, split across @p w's phases
 * by weight. Every one-second slot of a phase gets exactly its share
 * of rate x duration arrivals at uniform times within the slot — a
 * Poisson process conditioned on each slot's count — so arrivals
 * still clump within a second but every seed offers the same load.
 */
std::vector<Arrival> arrivalSchedule(const Workload &w,
                                     std::uint64_t seed,
                                     double seconds);

/** The latency limit (SLO) of a request kind, in seconds. */
double latencyLimitSeconds(serve::RequestKind kind);

} // namespace servingbench
} // namespace sofa

#endif // SOFA_BENCHMARK_WORKLOADS_H
