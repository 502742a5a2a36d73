#include "common/faultplan.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.h"

namespace sofa {

namespace {

/** splitmix64 finalizer (same mix as model/model_workload.cc). */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** FNV-1a over a C string; stage names enter the hash through this. */
std::uint64_t
hashString(const char *s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (; s && *s; ++s) {
        h ^= static_cast<unsigned char>(*s);
        h *= 0x00000100000001B3ull;
    }
    return h;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** Cap on a slow rule's sleep, in ms (in-tree plans use at most 60):
 * it keeps the nanosecond conversion in sleep_for well defined. */
constexpr double kMaxSlowMs = 60000.0;

[[noreturn]] void
bad(const std::string &what, const std::string &tok)
{
    throw std::invalid_argument("FaultPlan: " + what + " in '" + tok +
                                "'");
}

/** Decimal digits only: std::stoull alone would also take a sign
 * (wrapping "-1" to 2^64 - 1) or leading whitespace. */
std::uint64_t
parseUint(const std::string &tok, const std::string &value)
{
    if (value.empty())
        bad("empty integer", tok);
    if (value.find_first_not_of("0123456789") != std::string::npos)
        bad("non-digit in integer '" + value + "'", tok);
    std::size_t pos = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(value, &pos);
    } catch (const std::exception &) {
        bad("unparsable integer '" + value + "'", tok);
    }
    if (pos != value.size())
        bad("trailing garbage in integer '" + value + "'", tok);
    return static_cast<std::uint64_t>(v);
}

double
parseFloat(const std::string &tok, const std::string &value)
{
    if (value.empty())
        bad("empty number", tok);
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(value, &pos);
    } catch (const std::exception &) {
        bad("unparsable number '" + value + "'", tok);
    }
    if (pos != value.size())
        bad("trailing garbage in number '" + value + "'", tok);
    if (!std::isfinite(v))
        bad("non-finite number '" + value + "'", tok);
    return v;
}

FaultRule
parseRule(const std::string &text)
{
    std::vector<std::string> fields = split(text, ':');
    FaultRule rule;
    const std::string action = trim(fields[0]);
    bool sawMs = false;
    if (action == "fail") {
        rule.action = FaultAction::Fail;
    } else if (action == "slow") {
        rule.action = FaultAction::Slow;
    } else {
        bad("unknown action '" + action + "'", text);
    }
    for (std::size_t i = 1; i < fields.size(); ++i) {
        const std::string tok = trim(fields[i]);
        if (tok.empty())
            bad("empty field", text);
        std::size_t eq = tok.find_first_of("=<");
        if (eq == std::string::npos)
            bad("field without '=' ('" + tok + "')", text);
        const std::string key = tok.substr(0, eq);
        const char op = tok[eq];
        const std::string value = tok.substr(eq + 1);
        if (key == "attempt") {
            std::uint64_t n = parseUint(tok, value);
            if (n > 1u << 20)
                bad("absurd attempt bound", tok);
            if (op == '=')
                rule.attemptEq = static_cast<int>(n);
            else
                rule.attemptBelow = static_cast<int>(n);
            continue;
        }
        if (op != '=')
            bad("'<' only valid for attempt ('" + tok + "')", text);
        if (key == "req") {
            if (value == "*") {
                rule.anyRequest = true;
            } else {
                rule.anyRequest = false;
                rule.request = parseUint(tok, value);
            }
        } else if (key == "stage") {
            rule.stage = value == "*" ? "" : value;
            if (value.empty())
                bad("empty stage name", tok);
        } else if (key == "prob") {
            rule.prob = parseFloat(tok, value);
            if (!(rule.prob >= 0.0 && rule.prob <= 1.0))
                bad("prob outside [0,1]", tok);
        } else if (key == "seed") {
            rule.seed = parseUint(tok, value);
        } else if (key == "ms") {
            if (rule.action != FaultAction::Slow)
                bad("ms= only valid on slow rules", tok);
            rule.slowMs = parseFloat(tok, value);
            if (!(rule.slowMs > 0.0 && rule.slowMs <= kMaxSlowMs))
                bad("ms outside (0, 60000]", tok);
            sawMs = true;
        } else {
            bad("unknown key '" + key + "'", text);
        }
    }
    (void)sawMs; // slow rules default to 1 ms when ms= is omitted
    return rule;
}

} // namespace

double
hashUnitInterval(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = mix64(seed ^ 0xFA017ull);
    z = mix64(z + a);
    z = mix64(z + b);
    // Top 53 bits -> uniform double in [0, 1).
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &raw : split(spec, ';')) {
        const std::string text = trim(raw);
        if (text.empty())
            continue;
        plan.rules_.push_back(parseRule(text));
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv(const char *var)
{
    const char *spec = std::getenv(var);
    if (spec == nullptr || *spec == '\0')
        return FaultPlan{};
    try {
        return parse(spec);
    } catch (const std::invalid_argument &e) {
        fatal("%s: %s", var, e.what());
    }
}

FaultDecision
FaultPlan::at(std::uint64_t request, const char *stage,
              int attempt) const
{
    for (const FaultRule &rule : rules_) {
        if (!rule.anyRequest && rule.request != request)
            continue;
        if (!rule.stage.empty() &&
            (stage == nullptr || rule.stage != stage))
            continue;
        if (rule.attemptEq >= 0 && attempt != rule.attemptEq)
            continue;
        if (rule.attemptBelow >= 0 && attempt >= rule.attemptBelow)
            continue;
        if (rule.prob < 1.0) {
            // Stateless gate: hash (seed, request, stage ^ attempt)
            // so the decision depends only on the injection point,
            // never on evaluation order or thread interleaving.
            const double u = hashUnitInterval(
                rule.seed, request,
                hashString(stage) + static_cast<std::uint64_t>(
                                        attempt >= 0 ? attempt : 0));
            if (u >= rule.prob)
                continue;
        }
        FaultDecision d;
        d.action = rule.action;
        d.slowMs = rule.action == FaultAction::Slow ? rule.slowMs
                                                    : 0.0;
        return d;
    }
    return FaultDecision{};
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    bool first = true;
    for (const FaultRule &rule : rules_) {
        if (!first)
            os << "; ";
        first = false;
        os << (rule.action == FaultAction::Fail ? "fail" : "slow");
        os << ":req=";
        if (rule.anyRequest)
            os << "*";
        else
            os << rule.request;
        os << ":stage=" << (rule.stage.empty() ? "*" : rule.stage);
        if (rule.attemptEq >= 0)
            os << ":attempt=" << rule.attemptEq;
        if (rule.attemptBelow >= 0)
            os << ":attempt<" << rule.attemptBelow;
        if (rule.prob < 1.0)
            os << ":prob=" << rule.prob << ":seed=" << rule.seed;
        if (rule.action == FaultAction::Slow)
            os << ":ms=" << rule.slowMs;
    }
    if (first)
        os << "(empty)";
    return os.str();
}

} // namespace sofa
