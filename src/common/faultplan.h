/**
 * @file
 * Deterministic, seeded fault-injection plans for the serving layer.
 * A FaultPlan is a list of rules parsed from a compact spec string
 * (usually the SOFA_FAULTS environment variable); each rule matches
 * an injection point — a (request id, engine stage, attempt) triple
 * probed by the scheduler at every EngineRun stage-step boundary —
 * and injects either an engine-stage exception (`fail`) or an
 * artificial slowdown (`slow`). Probabilistic rules are gated by a
 * stateless splitmix64 hash of (seed, request, stage, attempt), not
 * by a shared RNG stream, so a plan replays to bit-identical
 * decisions at any thread count, lane count, or evaluation order —
 * the property the fault-suite determinism tests and the CI replay
 * smoke test gate.
 *
 * Grammar (rules separated by `;`, fields by `:`):
 *
 *   rule    := action (":" field)*
 *   action  := "fail" | "slow"
 *   field   := "req="     (uint | "*")        match one request id / any
 *            | "stage="   (name | "*")        engine stage name / any
 *            | "attempt=" uint <= 2^20        exact attempt (0-based)
 *            | "attempt<" uint <= 2^20        attempts below the bound
 *            | "prob="    float in [0,1]      hash-gated firing chance
 *            | "seed="    uint                per-rule hash salt
 *            | "ms="      float in (0,60000]  slowdown (slow rules only)
 *
 * A uint is decimal digits only (no sign, no blanks, < 2^64); a float
 * must be finite.
 *
 * Example: SOFA_FAULTS="fail:req=3:stage=sads_topk:attempt<2;
 * slow:req=*:stage=sufa_attention:ms=5:prob=0.1:seed=7". The first
 * matching rule wins; omitted fields are wildcards.
 *
 * Units: slowdowns in milliseconds; attempts are 0-based engine-run
 * attempt indices per request; prob is a fraction in [0,1]. Stage
 * names are Engine::stageNames() strings (core/engine.h).
 */

#ifndef SOFA_COMMON_FAULTPLAN_H
#define SOFA_COMMON_FAULTPLAN_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sofa {

/** What a matched rule injects at the probed point. */
enum class FaultAction {
    None, ///< no rule matched; proceed normally
    Fail, ///< throw InjectedFault (a transient engine failure)
    Slow, ///< sleep for `slowMs` before the stage runs
};

/** Decision for one (request, stage, attempt) injection point. */
struct FaultDecision
{
    FaultAction action = FaultAction::None;
    double slowMs = 0.0; ///< sleep duration when action == Slow
};

/** The exception `fail` rules throw at a stage-step boundary. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One parsed rule; see the grammar in the file header. */
struct FaultRule
{
    FaultAction action = FaultAction::Fail;
    bool anyRequest = true;      ///< req=* (the default)
    std::uint64_t request = 0;   ///< matched id when !anyRequest
    std::string stage;           ///< empty = any stage
    int attemptEq = -1;          ///< exact attempt match; -1 = off
    int attemptBelow = -1;       ///< match attempt < bound; -1 = off
    double prob = 1.0;           ///< hash-gated firing probability
    std::uint64_t seed = 0;      ///< salt for the probability hash
    double slowMs = 1.0;         ///< Slow rules: sleep duration
};

class FaultPlan
{
  public:
    /** The empty plan: at() always returns FaultAction::None. */
    FaultPlan() = default;

    /**
     * Parse a plan from the spec grammar above. Throws
     * std::invalid_argument naming the offending token on any
     * grammar error (unknown action/key, prob outside [0,1], ms
     * outside (0, 60000], ms on a fail rule, unparsable, signed or
     * non-finite number).
     */
    static FaultPlan parse(const std::string &spec);

    /**
     * The plan named by @p var (default SOFA_FAULTS): the empty plan
     * when the variable is unset or empty, fatal() (user error, not
     * an exception) when it is set but malformed.
     */
    static FaultPlan fromEnv(const char *var = "SOFA_FAULTS");

    bool empty() const { return rules_.empty(); }
    std::size_t ruleCount() const { return rules_.size(); }

    /**
     * Decide the injection at one point. Pure and stateless: the
     * same (request, stage, attempt) always yields the same decision
     * for a given plan, independent of call order or concurrency.
     * The first matching rule wins; @p stage may be nullptr (then
     * only stage-wildcard rules can match).
     */
    FaultDecision at(std::uint64_t request, const char *stage,
                     int attempt) const;

    /** One-line human-readable summary of every rule. */
    std::string describe() const;

  private:
    std::vector<FaultRule> rules_;
};

/**
 * Stateless hash of (seed, a, b) to a uniform double in [0, 1) via
 * a splitmix64 chain — the gate probabilistic fault rules and the
 * scheduler's retry-backoff jitter share, so both replay
 * deterministically without any RNG stream ordering.
 */
double hashUnitInterval(std::uint64_t seed, std::uint64_t a,
                        std::uint64_t b);

} // namespace sofa

#endif // SOFA_COMMON_FAULTPLAN_H
