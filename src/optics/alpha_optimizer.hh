/**
 * @file
 * Multi-mode splitter design via Appendix A's alpha parameterisation.
 *
 * Destinations unique to power mode m receive alpha_m * Pmin when the
 * source drives at the lowest mode power; driving mode m then costs
 * Pmode_m = Pmode_0 / alpha_m.  Because the exact splitter design makes
 * Pmode_0 linear in the targets, the expected source power
 *
 *     E[P] = (sum_m C_m alpha_m) * (sum_m w_m / alpha_m) * Pmin
 *
 * where C_m is the summed geometric tap attenuation of mode-m-unique
 * destinations and w_m the traffic fraction per mode.  This class
 * minimizes E[P] over 1 = alpha_0 >= alpha_1 >= ... > 0, both with the
 * paper's coarse grid search and with closed-form coordinate descent.
 */

#ifndef MNOC_OPTICS_ALPHA_OPTIMIZER_HH
#define MNOC_OPTICS_ALPHA_OPTIMIZER_HH

#include <cstddef>
#include <vector>

#include "optics/splitter_chain.hh"

namespace mnoc::optics {

/** Result of an abstract alpha optimization. */
struct AlphaSolution
{
    /** Optimal alpha vector (alpha[0] == 1, non-increasing). */
    std::vector<double> alpha;
    /** (sum_m C_m alpha_m) * (sum_m w_m / alpha_m) at the optimum;
     *  multiply by pmin to obtain the expected injected power. */
    double objective = 0.0;
};

/** Default floor on every alpha: the paper's Appendix A grid minimum,
 *  a 10x drive-current range (see optimizeAlphaVector()). */
inline constexpr double kDefaultMinAlpha = 0.1;

/**
 * Minimize (sum_m C_m alpha_m)(sum_m w_m / alpha_m) over non-increasing
 * alpha vectors with alpha[0] = 1, by closed-form coordinate descent
 * seeded from a coarse grid (or an analytic sqrt(w/c) seed for large
 * M).  @p mode_cost are the per-mode summed tap attenuations C_m;
 * @p weights the per-mode traffic fractions (normalized internally).
 *
 * @param min_alpha Floor on every alpha: 1/min_alpha bounds the drive
 *        dynamic range of a source's QD LED.  The default 0.1 matches
 *        the paper's Appendix A grid (alphas iterated from 0.1 to 1 in
 *        0.1 steps), i.e. a 10x current range; pass a smaller value to
 *        study idealized wide-range drivers.
 */
AlphaSolution optimizeAlphaVector(const std::vector<double> &mode_cost,
                                  const std::vector<double> &weights,
                                  double min_alpha = kDefaultMinAlpha);

/**
 * optimizeAlphaVector()'s kernel over raw arrays, for callers that
 * solve many small instances (the comm-aware partition sweep): no
 * heap allocation for @p m <= 8.  Same arithmetic, bit for bit.
 *
 * @param cost The m per-mode summed tap attenuations C_m.
 * @param weights The m per-mode traffic weights (normalized
 *        internally; non-negative, not all zero).
 * @param alpha Receives the m optimal alphas.
 * @return The objective at @p alpha.
 */
double solveAlpha(const double *cost, const double *weights,
                  std::size_t m, double min_alpha, double *alpha);

/** A complete multi-mode design for one source waveguide. */
struct MultiModeDesign
{
    /** Splitter design solved at the mode-0 targets. */
    ChainDesign chain;
    /** Power mode of each destination (entry at the source is -1). */
    std::vector<int> modeOfDest;
    /** alpha_m values; alpha[0] == 1. */
    std::vector<double> alpha;
    /** Injected optical power per mode (non-decreasing). */
    std::vector<WattPower> modePower;
    /** Traffic-weighted expected injected power. */
    WattPower expectedPower;
};

/**
 * Optimizes the alpha vector for a fixed mode assignment and traffic
 * weighting on one source's waveguide.
 */
class AlphaOptimizer
{
  public:
    /**
     * @param chain Power model of the source's waveguide.
     * @param mode_of_dest Power mode per destination in [0, M); the
     *        entry at the source index is ignored.  Every mode in
     *        [0, M) must be the minimum mode of at least zero nodes
     *        (empty modes are tolerated).
     * @param mode_weights Fraction of this source's traffic sent in
     *        each mode; normalized internally.  Size defines M.
     * @param pmin Required tap power per destination.
     */
    AlphaOptimizer(const SplitterChain &chain,
                   std::vector<int> mode_of_dest,
                   std::vector<double> mode_weights, WattPower pmin,
                   double min_alpha = kDefaultMinAlpha);

    /** Number of power modes M. */
    int numModes() const { return static_cast<int>(weights_.size()); }

    /**
     * Expected injected power for a candidate alpha vector, using the
     * precomputed per-mode attenuation sums (no chain solve).
     */
    WattPower expectedPowerFor(const std::vector<double> &alpha) const;

    /** Build the full design (splitters, mode powers) for @p alpha. */
    MultiModeDesign build(const std::vector<double> &alpha) const;

    /**
     * The paper's method: iterate alphas over a grid of the given step
     * (Appendix A uses 0.1) subject to monotonicity, keep the best.
     */
    MultiModeDesign optimizeGrid(double step = 0.1) const;

    /**
     * Closed-form coordinate descent on the alpha vector (exact for two
     * modes); never worse than the grid answer it starts from.
     */
    MultiModeDesign optimize() const;

    /** Summed tap attenuation of the destinations unique to @p mode. */
    double modeCost(int mode) const;

  private:
    const SplitterChain &chain_;
    std::vector<int> modeOfDest_;
    std::vector<double> weights_;
    WattPower pmin_;
    /** Floor on every alpha (bounds the drive dynamic range). */
    double minAlpha_;
    /** C_m: summed tap attenuation per mode. */
    std::vector<double> modeCost_;
};

} // namespace mnoc::optics

#endif // MNOC_OPTICS_ALPHA_OPTIMIZER_HH
