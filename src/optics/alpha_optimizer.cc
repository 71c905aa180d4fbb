#include "optics/alpha_optimizer.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace mnoc::optics {

namespace {

/** Objective (sum C a)(sum w / a); assumes positive alphas. */
double
alphaObjective(const double *cost, const double *weights,
               const double *alpha, std::size_t m)
{
    double c = 0.0;
    double inv = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        c += cost[i] * alpha[i];
        inv += weights[i] / alpha[i];
    }
    return c * inv;
}

} // namespace

double
solveAlpha(const double *cost, const double *raw_weights, std::size_t m,
           double min_alpha, double *alpha)
{
    fatalIf(m == 0, "need at least one mode");
    fatalIf(min_alpha <= 0.0 || min_alpha > 1.0,
            "min_alpha must lie in (0, 1]");

    // Four m-entry scratch rows: normalized weights, the grid's best
    // (or the analytic seed's targets), and the descent's cached
    // C_j alpha_j and w_j / alpha_j terms.
    constexpr std::size_t kStackModes = 8;
    double stack[4 * kStackModes] = {};
    std::vector<double> heap;
    double *scratch = stack;
    if (m > kStackModes) {
        heap.resize(4 * m);
        scratch = heap.data();
    }
    double *weights = scratch;
    double *best = scratch + m;
    double *cost_term = scratch + 2 * m;
    double *inv_term = scratch + 3 * m;

    double wsum = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        fatalIf(raw_weights[i] < 0.0, "mode weights must be non-negative");
        wsum += raw_weights[i];
    }
    fatalIf(wsum <= 0.0, "mode weights must not all be zero");
    for (std::size_t i = 0; i < m; ++i)
        weights[i] = raw_weights[i] / wsum;

    std::fill(alpha, alpha + m, 1.0);
    if (m == 1)
        return alphaObjective(cost, weights, alpha, m);

    if (m <= 8) {
        // Coarse monotone grid seed (the paper's Appendix A method).
        std::copy(alpha, alpha + m, best);
        double best_obj = alphaObjective(cost, weights, alpha, m);
        const double step = 0.25;
        auto recurse = [&](auto &&self, std::size_t index) -> void {
            if (index == m) {
                double obj = alphaObjective(cost, weights, alpha, m);
                if (obj < best_obj) {
                    best_obj = obj;
                    std::copy(alpha, alpha + m, best);
                }
                return;
            }
            for (double a = step; a <= alpha[index - 1] + 1e-12;
                 a += step) {
                alpha[index] = std::clamp(a, min_alpha, alpha[index - 1]);
                self(self, index + 1);
            }
        };
        recurse(recurse, 1);
        std::copy(best, best + m, alpha);
    } else {
        // Analytic seed for large M (per-destination-mode designs):
        // the unconstrained stationary point is alpha_i proportional
        // to sqrt(w_i / c_i); zero-weight modes want the floor (they
        // cost provisioning but carry no traffic).  Normalize to
        // alpha_0 = 1 and project onto the monotone cone: a backward
        // running max keeps later must-be-high modes feasible, a
        // forward running min enforces non-increase.
        double base = (cost[0] > 0.0 && weights[0] > 0.0)
                          ? std::sqrt(weights[0] / cost[0])
                          : 1.0;
        double *desired = best;
        std::fill(desired, desired + m, min_alpha);
        desired[0] = 1.0;
        for (std::size_t i = 1; i < m; ++i) {
            if (cost[i] > 0.0 && weights[i] > 0.0)
                desired[i] = std::clamp(
                    std::sqrt(weights[i] / cost[i]) / base, min_alpha,
                    1.0);
        }
        for (std::size_t i = m - 1; i-- > 0;)
            desired[i] = std::max(desired[i], desired[i + 1]);
        alpha[0] = 1.0;
        for (std::size_t i = 1; i < m; ++i)
            alpha[i] = std::min(desired[i], alpha[i - 1]);
    }

    // Closed-form coordinate descent.  The C_j alpha_j and
    // w_j / alpha_j terms are cached and only entry i is refreshed
    // after alpha_i moves: the sums over j != i add the very doubles
    // a recomputation would, in the same j order.
    for (std::size_t j = 0; j < m; ++j) {
        cost_term[j] = cost[j] * alpha[j];
        inv_term[j] = weights[j] / alpha[j];
    }
    int max_iterations = m > 32 ? 60 : 200;
    for (int iter = 0; iter < max_iterations; ++iter) {
        double moved = 0.0;
        for (std::size_t i = 1; i < m; ++i) {
            double other_cost = 0.0;
            double other_inv = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
                if (j == i)
                    continue;
                other_cost += cost_term[j];
                other_inv += inv_term[j];
            }
            double hi = alpha[i - 1];
            double lo = i + 1 < m ? alpha[i + 1] : min_alpha;
            double candidate;
            if (cost[i] > 0.0 && other_inv > 0.0) {
                candidate = std::sqrt(other_cost * weights[i] /
                                      (cost[i] * other_inv));
            } else if (weights[i] == 0.0) {
                candidate = lo;
            } else {
                candidate = hi;
            }
            candidate = std::clamp(candidate, lo, hi);
            moved += std::fabs(candidate - alpha[i]);
            alpha[i] = candidate;
            cost_term[i] = cost[i] * candidate;
            inv_term[i] = weights[i] / candidate;
        }
        if (moved < 1e-12)
            break;
    }
    return alphaObjective(cost, weights, alpha, m);
}

AlphaSolution
optimizeAlphaVector(const std::vector<double> &mode_cost,
                    const std::vector<double> &raw_weights,
                    double min_alpha)
{
    std::size_t m = mode_cost.size();
    fatalIf(m == 0, "need at least one mode");
    fatalIf(raw_weights.size() != m,
            "mode cost and weight vectors must agree in size");
    AlphaSolution out;
    out.alpha.resize(m);
    out.objective = solveAlpha(mode_cost.data(), raw_weights.data(), m,
                               min_alpha, out.alpha.data());
    return out;
}

AlphaOptimizer::AlphaOptimizer(const SplitterChain &chain,
                               std::vector<int> mode_of_dest,
                               std::vector<double> mode_weights,
                               WattPower pmin, double min_alpha)
    : chain_(chain), modeOfDest_(std::move(mode_of_dest)),
      weights_(std::move(mode_weights)), pmin_(pmin),
      minAlpha_(min_alpha)
{
    fatalIf(min_alpha <= 0.0 || min_alpha > 1.0,
            "min_alpha must lie in (0, 1]");
    int n = chain_.numNodes();
    int m = numModes();
    fatalIf(m < 1, "need at least one power mode");
    fatalIf(static_cast<int>(modeOfDest_.size()) != n,
            "mode assignment size must equal node count");
    fatalIf(pmin_ <= WattPower(0.0), "pmin must be positive");

    double weight_sum = 0.0;
    for (double w : weights_) {
        fatalIf(w < 0.0, "mode weights must be non-negative");
        weight_sum += w;
    }
    fatalIf(weight_sum <= 0.0, "mode weights must not all be zero");
    for (double &w : weights_)
        w /= weight_sum;

    modeCost_.assign(m, 0.0);
    for (int dest = 0; dest < n; ++dest) {
        if (dest == chain_.source())
            continue;
        int mode = modeOfDest_[dest];
        fatalIf(mode < 0 || mode >= m,
                "destination mode out of range");
        modeCost_[mode] += chain_.tapAttenuation(dest).value();
    }
}

double
AlphaOptimizer::modeCost(int mode) const
{
    fatalIf(mode < 0 || mode >= numModes(), "mode out of range");
    return modeCost_[mode];
}

WattPower
AlphaOptimizer::expectedPowerFor(const std::vector<double> &alpha) const
{
    int m = numModes();
    panicIf(static_cast<int>(alpha.size()) != m, "alpha size mismatch");
    double cost = 0.0;
    double inv = 0.0;
    for (int i = 0; i < m; ++i) {
        panicIf(alpha[i] <= 0.0 || alpha[i] > 1.0,
                "alpha must lie in (0, 1]");
        cost += modeCost_[i] * alpha[i];
        inv += weights_[i] / alpha[i];
    }
    return pmin_ * (cost * inv);
}

MultiModeDesign
AlphaOptimizer::build(const std::vector<double> &alpha) const
{
    int n = chain_.numNodes();
    int m = numModes();
    fatalIf(static_cast<int>(alpha.size()) != m, "alpha size mismatch");
    fatalIf(alpha[0] != 1.0, "alpha_0 must be 1");
    for (int i = 1; i < m; ++i)
        fatalIf(alpha[i] > alpha[i - 1] || alpha[i] <= 0.0,
                "alphas must be non-increasing and positive");

    std::vector<double> targets(n, 0.0);
    for (int dest = 0; dest < n; ++dest) {
        if (dest == chain_.source())
            continue;
        targets[dest] = alpha[modeOfDest_[dest]] * pmin_.watts();
    }

    MultiModeDesign out;
    out.chain = chain_.design(targets);
    out.modeOfDest = modeOfDest_;
    out.modeOfDest[chain_.source()] = -1;
    out.alpha = alpha;
    out.modePower.resize(m);
    out.expectedPower = WattPower(0.0);
    for (int i = 0; i < m; ++i) {
        out.modePower[i] = out.chain.injectedPower / alpha[i];
        out.expectedPower += weights_[i] * out.modePower[i];
    }
    return out;
}

MultiModeDesign
AlphaOptimizer::optimizeGrid(double step) const
{
    int m = numModes();
    fatalIf(step <= 0.0 || step > 1.0, "grid step must be in (0, 1]");

    std::vector<double> alpha(m, 1.0);
    std::vector<double> best(m, 1.0);
    WattPower best_power = expectedPowerFor(best);

    // Enumerate non-increasing alpha vectors over the grid.
    auto recurse = [&](auto &&self, int index) -> void {
        if (index == m) {
            WattPower p = expectedPowerFor(alpha);
            if (p < best_power) {
                best_power = p;
                best = alpha;
            }
            return;
        }
        for (double a = step; a <= alpha[index - 1] + 1e-12; a += step) {
            alpha[index] = std::min(a, alpha[index - 1]);
            self(self, index + 1);
        }
    };
    if (m > 1)
        recurse(recurse, 1);

    return build(best);
}

MultiModeDesign
AlphaOptimizer::optimize() const
{
    if (numModes() == 1)
        return build({1.0});
    return build(
        optimizeAlphaVector(modeCost_, weights_, minAlpha_).alpha);
}

} // namespace mnoc::optics
