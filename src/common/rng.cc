#include "common/rng.h"

#include "common/logging.h"

namespace sofa {

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    SOFA_ASSERT(lo <= hi);
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
}

double
Rng::gaussian(double mean, double stddev)
{
    if (stddev == 0.0) {
        // std::normal_distribution requires stddev > 0 (checked mode
        // asserts it). Which engine words its polar method consumes
        // does not depend on the parameters, so a unit draw keeps the
        // stream in step.
        std::normal_distribution<double> unit;
        unit(engine_);
        return mean;
    }
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
}

double
Rng::exponential(double rate)
{
    std::exponential_distribution<double> d(rate);
    return d(engine_);
}

bool
Rng::bernoulli(double p)
{
    std::bernoulli_distribution d(p);
    return d(engine_);
}

std::size_t
Rng::categorical(const std::vector<double> &weights)
{
    SOFA_ASSERT(!weights.empty());
    double total = 0.0;
    for (double w : weights)
        total += w;
    SOFA_ASSERT(total > 0.0);
    double u = uniform(0.0, total);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (u < acc)
            return i;
    }
    return weights.size() - 1;
}

} // namespace sofa
