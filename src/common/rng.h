/**
 * @file
 * Deterministic random-number generation for workload synthesis and the
 * Bayesian design-space exploration. A thin wrapper over std::mt19937_64
 * so every experiment in the repository is reproducible from a seed.
 */

#ifndef SOFA_COMMON_RNG_H
#define SOFA_COMMON_RNG_H

#include <cstdint>
#include <random>
#include <vector>

namespace sofa {

/** Seeded random source shared by workload generators and the DSE. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x50FA50FAull) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Normal deviate. At @p stddev 0 it returns @p mean after
     * consuming the engine words a unit draw consumes, so the stream
     * stays where any other stddev leaves it.
     */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /** Exponential deviate with the given rate. */
    double exponential(double rate);

    /** Bernoulli trial. */
    bool bernoulli(double p);

    /** Sample an index from an (unnormalized) weight vector. */
    std::size_t categorical(const std::vector<double> &weights);

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(
                uniformInt(0, static_cast<std::int64_t>(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::mt19937_64 engine_;
};

} // namespace sofa

#endif // SOFA_COMMON_RNG_H
