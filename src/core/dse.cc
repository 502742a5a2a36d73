#include "core/dse.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace sofa {

std::vector<double>
DsePoint::features(int tc_max) const
{
    std::vector<double> f;
    f.reserve(tcPerLayer.size() + 1);
    for (int tc : tcPerLayer)
        f.push_back(static_cast<double>(tc) / tc_max);
    f.push_back(topkFrac);
    return f;
}

double
DseSpace::totalConfigurations() const
{
    const double tc_choices =
        static_cast<double>((tcMax - tcMin) / tcStep + 1);
    const double k_choices =
        std::round((topkMax - topkMin) / topkStep) + 1;
    return std::pow(tc_choices, layers) * k_choices;
}

DsePoint
DseSpace::randomPoint(Rng &rng) const
{
    DsePoint p;
    p.tcPerLayer.resize(layers);
    const int tc_choices = (tcMax - tcMin) / tcStep + 1;
    for (int &tc : p.tcPerLayer) {
        tc = tcMin + tcStep * static_cast<int>(
            rng.uniformInt(0, tc_choices - 1));
    }
    const int k_choices = static_cast<int>(
        std::round((topkMax - topkMin) / topkStep)) + 1;
    p.topkFrac = topkMin + topkStep * static_cast<double>(
        rng.uniformInt(0, k_choices - 1));
    return p;
}

GaussianProcess::GaussianProcess(double length_scale, double signal_var,
                                 double noise_var)
    : lengthScale_(length_scale), signalVar_(signal_var),
      noiseVar_(noise_var)
{}

double
GaussianProcess::kernel(const std::vector<double> &a,
                        const std::vector<double> &b) const
{
    SOFA_ASSERT(a.size() == b.size());
    double d2 = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        d2 += d * d;
    }
    return signalVar_ *
           std::exp(-d2 / (2.0 * lengthScale_ * lengthScale_));
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &x,
                     const std::vector<double> &y)
{
    SOFA_ASSERT(x.size() == y.size() && !x.empty());
    const std::size_t n = x.size();
    train_x_ = x;

    yMean_ = 0.0;
    for (double v : y)
        yMean_ += v;
    yMean_ /= static_cast<double>(n);

    // K + sigma^2 I
    std::vector<std::vector<double>> kmat(n, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double v = kernel(x[i], x[j]);
            if (i == j)
                v += noiseVar_;
            kmat[i][j] = v;
            kmat[j][i] = v;
        }
    }

    // Cholesky decomposition K = L L^T.
    chol_.assign(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = kmat[i][j];
            for (std::size_t t = 0; t < j; ++t)
                sum -= chol_[i][t] * chol_[j][t];
            if (i == j) {
                SOFA_ASSERT(sum > 0.0);
                chol_[i][j] = std::sqrt(sum);
            } else {
                chol_[i][j] = sum / chol_[j][j];
            }
        }
    }

    // Solve L z = (y - mean), then L^T alpha = z.
    std::vector<double> z(n);
    for (std::size_t i = 0; i < n; ++i) {
        double sum = y[i] - yMean_;
        for (std::size_t t = 0; t < i; ++t)
            sum -= chol_[i][t] * z[t];
        z[i] = sum / chol_[i][i];
    }
    alpha_.assign(n, 0.0);
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double sum = z[i];
        for (std::size_t t = i + 1; t < n; ++t)
            sum -= chol_[t][i] * alpha_[t];
        alpha_[i] = sum / chol_[i][i];
    }
}

void
GaussianProcess::predict(const std::vector<double> &x, double *mean,
                         double *variance) const
{
    SOFA_ASSERT(fitted());
    const std::size_t n = train_x_.size();
    std::vector<double> kstar(n);
    for (std::size_t i = 0; i < n; ++i)
        kstar[i] = kernel(train_x_[i], x);

    double mu = yMean_;
    for (std::size_t i = 0; i < n; ++i)
        mu += kstar[i] * alpha_[i];

    // v = L^-1 k*
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        double sum = kstar[i];
        for (std::size_t t = 0; t < i; ++t)
            sum -= chol_[i][t] * v[t];
        v[i] = sum / chol_[i][i];
    }
    double var = kernel(x, x);
    for (std::size_t i = 0; i < n; ++i)
        var -= v[i] * v[i];
    var = std::max(var, 1e-12);

    if (mean)
        *mean = mu;
    if (variance)
        *variance = var;
}

double
expectedImprovement(double mu, double variance, double best)
{
    const double sigma = std::sqrt(std::max(variance, 1e-12));
    const double z = (best - mu) / sigma;
    // Standard normal pdf / cdf.
    const double pdf =
        std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
    const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
    return (best - mu) * cdf + sigma * pdf;
}

namespace {

DseSample
evaluatePoint(const DsePoint &p, const DseObjectiveWeights &w,
              const DseEvaluator &evaluate)
{
    DseSample s;
    s.point = p;
    s.eval = evaluate(p);
    s.objective = s.eval.objective(w);
    return s;
}

} // namespace

DseResult
bayesianSearch(const DseSpace &space, const DseObjectiveWeights &weights,
               const DseEvaluator &evaluate, int iterations,
               int init_samples, int candidates, std::uint64_t seed)
{
    Rng rng(seed);
    DseResult result;
    result.bestObjective = 1e30;

    std::vector<DseSample> samples;
    auto record = [&](const DseSample &s) {
        if (s.objective < result.bestObjective) {
            result.bestObjective = s.objective;
            result.best = s.point;
            result.bestEval = s.eval;
        }
        result.history.push_back(result.bestObjective);
        ++result.evaluations;
    };

    // Initial design.
    for (int i = 0; i < init_samples; ++i) {
        DseSample s =
            evaluatePoint(space.randomPoint(rng), weights, evaluate);
        samples.push_back(s);
        record(s);
    }

    for (int it = 0; it < iterations; ++it) {
        // Fit the GP on everything seen.
        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        xs.reserve(samples.size());
        ys.reserve(samples.size());
        for (const auto &s : samples) {
            xs.push_back(s.point.features(space.tcMax));
            ys.push_back(s.objective);
        }
        GaussianProcess gp;
        gp.fit(xs, ys);

        // Maximize EI over random candidates (arg max alpha(Theta, D)).
        DsePoint best_cand = space.randomPoint(rng);
        double best_ei = -1.0;
        for (int c = 0; c < candidates; ++c) {
            DsePoint cand = space.randomPoint(rng);
            double mu, var;
            gp.predict(cand.features(space.tcMax), &mu, &var);
            const double ei =
                expectedImprovement(mu, var, result.bestObjective);
            if (ei > best_ei) {
                best_ei = ei;
                best_cand = cand;
            }
        }

        DseSample s = evaluatePoint(best_cand, weights, evaluate);
        samples.push_back(s);
        record(s);
    }
    return result;
}

DseResult
randomSearch(const DseSpace &space, const DseObjectiveWeights &weights,
             const DseEvaluator &evaluate, int iterations,
             std::uint64_t seed)
{
    Rng rng(seed);
    DseResult result;
    result.bestObjective = 1e30;
    for (int i = 0; i < iterations; ++i) {
        DseSample s =
            evaluatePoint(space.randomPoint(rng), weights, evaluate);
        if (s.objective < result.bestObjective) {
            result.bestObjective = s.objective;
            result.best = s.point;
            result.bestEval = s.eval;
        }
        result.history.push_back(result.bestObjective);
        ++result.evaluations;
    }
    return result;
}

double
analyticLcmp(const DsePoint &p, int seq)
{
    // Eq. 3: sum_i(Bci * k) / sum_i(S * k); the k factors cancel.
    double num = 0.0, den = 0.0;
    for (int tc : p.tcPerLayer) {
        const double bc = static_cast<double>(seq) / std::max(1, tc);
        num += bc;
        den += static_cast<double>(seq);
    }
    return den > 0.0 ? num / den : 0.0;
}

double
analyticLexp(const DsePoint &p, int seq)
{
    // Eq. 4: sum_i(S / Bci) = sum_i(Tc_i); normalized by layers * max
    // so the term is comparable in magnitude to Len and Lcmp.
    double acc = 0.0;
    for (int tc : p.tcPerLayer)
        acc += static_cast<double>(tc);
    (void)seq;
    const double norm =
        32.0 * static_cast<double>(std::max<std::size_t>(
                   p.tcPerLayer.size(), 1));
    return acc / norm;
}

} // namespace sofa
