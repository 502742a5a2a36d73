/**
 * @file
 * Design-space exploration for SOFA's tiling hyperparameters
 * (Section III-D, Algorithm 1). The space is one tile count Tc per
 * layer (2..32, step 2 -> Bc = S / Tc) plus a global top-k fraction
 * (5%..50%, step 5%). The objective (Eq. 2) is
 *
 *     L(R) = Len + alpha * Lcmp + beta * Lexp
 *
 * with Len an accuracy term (our cross-entropy proxy derived from the
 * uncovered softmax mass), Lcmp the sorting-cost penalty (Eq. 3) and
 * Lexp the SU-FA exponential penalty (Eq. 4).
 *
 * The optimizer is a Gaussian-process Bayesian search with an
 * expected-improvement acquisition maximized over random candidates;
 * grid and random searches are provided as baselines to demonstrate
 * the >= 10^15-point space is intractable exhaustively.
 *
 * Units: dimensionless loss terms (Eq. 2 weights alpha/beta);
 * space sizes are configuration counts. Assumes the paper's grids:
 * Tc in 2..32 step 2 per layer, top-k 5%..50% step 5%.
 */

#ifndef SOFA_CORE_DSE_H
#define SOFA_CORE_DSE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace sofa {

/** One point in the design space. */
struct DsePoint
{
    std::vector<int> tcPerLayer; ///< tile counts, one per layer
    double topkFrac = 0.2;

    /** Flatten to a normalized feature vector for the GP kernel. */
    std::vector<double> features(int tc_max = 32) const;
};

/** Search-space limits. */
struct DseSpace
{
    int layers = 12;
    int tcMin = 2;
    int tcMax = 32;
    int tcStep = 2;
    double topkMin = 0.05;
    double topkMax = 0.50;
    double topkStep = 0.05;

    /** Total number of discrete configurations (may overflow to inf
     * in double for deep models; used for reporting only). */
    double totalConfigurations() const;

    /** Draw a uniformly random valid point. */
    DsePoint randomPoint(Rng &rng) const;
};

/** Objective weights (Eq. 2) — per-model values in Section V-B.1. */
struct DseObjectiveWeights
{
    double alpha = 0.3;
    double beta = 0.35;
};

/**
 * Evaluation callback: maps a point to (Len, Lcmp, Lexp). The harness
 * provides an implementation backed by the functional pipeline; tests
 * provide synthetic ones.
 */
struct DseEvaluation
{
    double len = 0.0;  ///< accuracy loss term
    double lcmp = 0.0; ///< Eq. 3: sum(Bci * k) / sum(S * k)
    double lexp = 0.0; ///< Eq. 4: sum(S / Bci), normalized

    double
    objective(const DseObjectiveWeights &w) const
    {
        return len + w.alpha * lcmp + w.beta * lexp;
    }
};

using DseEvaluator = std::function<DseEvaluation(const DsePoint &)>;

/** A visited (point, objective) sample. */
struct DseSample
{
    DsePoint point;
    DseEvaluation eval;
    double objective = 0.0;
};

/** Search trace: best objective after each iteration. */
struct DseResult
{
    DsePoint best;
    double bestObjective = 0.0;
    DseEvaluation bestEval;
    std::vector<double> history; ///< best-so-far per iteration
    std::int64_t evaluations = 0;
};

/** Gaussian-process regression with an RBF kernel (for the BO loop,
 * exposed publicly so it can be unit-tested). */
class GaussianProcess
{
  public:
    explicit GaussianProcess(double length_scale = 0.35,
                             double signal_var = 1.0,
                             double noise_var = 1e-6);

    /** Fit to observations (O(n^3) Cholesky; n stays small). */
    void fit(const std::vector<std::vector<double>> &x,
             const std::vector<double> &y);

    /** Predictive mean and variance at a query point. */
    void predict(const std::vector<double> &x, double *mean,
                 double *variance) const;

    bool fitted() const { return !train_x_.empty(); }

  private:
    double kernel(const std::vector<double> &a,
                  const std::vector<double> &b) const;

    double lengthScale_;
    double signalVar_;
    double noiseVar_;
    std::vector<std::vector<double>> train_x_;
    std::vector<double> alpha_;          ///< K^-1 (y - mean)
    std::vector<std::vector<double>> chol_; ///< Cholesky factor L
    double yMean_ = 0.0;
};

/** Expected improvement of minimizing at predicted (mu, var). */
double expectedImprovement(double mu, double variance, double best);

/**
 * Bayesian-optimization search (Algorithm 1).
 *
 * @param space search space
 * @param weights objective weights
 * @param evaluate objective callback
 * @param iterations sampled points after the initial design
 * @param init_samples random points used to seed the GP
 * @param candidates acquisition candidates per iteration
 */
DseResult bayesianSearch(const DseSpace &space,
                         const DseObjectiveWeights &weights,
                         const DseEvaluator &evaluate,
                         int iterations = 60, int init_samples = 10,
                         int candidates = 256,
                         std::uint64_t seed = 0xD5Eull);

/** Pure random search baseline with the same evaluation budget. */
DseResult randomSearch(const DseSpace &space,
                       const DseObjectiveWeights &weights,
                       const DseEvaluator &evaluate, int iterations,
                       std::uint64_t seed = 0xD5E2ull);

/** Analytic Lcmp (Eq. 3) and Lexp (Eq. 4) for a point. */
double analyticLcmp(const DsePoint &p, int seq);
double analyticLexp(const DsePoint &p, int seq);

} // namespace sofa

#endif // SOFA_CORE_DSE_H
