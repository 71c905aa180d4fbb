/**
 * @file
 * Link-budget and bit-error-rate validation for multi-mode designs.
 *
 * A power topology only works if, in every mode, every reachable
 * destination's photodetector sees at least its mIOP with margin, and
 * every *unreachable* destination sits far enough below the threshold
 * circuit's decision level that it reads noise (paper Section 3.2.2).
 * This module checks both sides of the budget and estimates the BER of
 * an on/off-keyed link from the ratio of received power to mIOP using
 * the standard Gaussian-noise Q-factor model.
 *
 * All thresholds are strong-typed: received powers and pmin are
 * WattPower, margins and leak levels are DecibelLoss.  Passing a dB
 * quantity where a linear one is expected (or vice versa) does not
 * compile -- e.g. validateDesign(chain, design,
 * params.couplerLoss, ...) is rejected because a DecibelLoss is not a
 * WattPower, where the old all-double API would have silently used
 * 1.0 (the coupler's dB figure) as a one-watt threshold.
 */

#ifndef MNOC_OPTICS_LINK_BUDGET_HH
#define MNOC_OPTICS_LINK_BUDGET_HH

#include <limits>
#include <vector>

#include "optics/alpha_optimizer.hh"

namespace mnoc::optics {

/** Budget of one (mode, destination) link. */
struct LinkBudget
{
    int mode = 0;
    int dest = 0;
    /** Received tap power when driving this mode. */
    WattPower receivedPower;
    /** Margin relative to pmin (negative = below threshold). */
    DecibelLoss margin;
    /** Whether the destination is reachable in this mode. */
    bool reachable = false;
    /** Estimated bit error rate of the on/off-keyed link. */
    double bitErrorRate = 1.0;
};

/** Result of validating one source's design. */
struct BudgetReport
{
    std::vector<LinkBudget> links;
    /** Smallest margin over all reachable links. */
    DecibelLoss worstReachableMargin;
    /** Largest received power of any unreachable link, relative to
     *  pmin (should be comfortably negative). */
    DecibelLoss worstUnreachableLeak{-1e9};
    bool ok = false;
};

/** The unconstrained leak limit (any sub-threshold level tolerated). */
inline constexpr DecibelLoss unconstrainedLeak{
    std::numeric_limits<double>::infinity()};

/**
 * Estimate the BER of an on/off-keyed photonic link whose received
 * "one" power is @p received against a receiver designed for @p pmin.
 * Uses Q = q_at_pmin * received / pmin with BER = 0.5 erfc(Q / sqrt 2),
 * where q_at_pmin (default 7, ~1e-12 BER) is the design point of the
 * receiver chain.
 */
double linkBitErrorRate(WattPower received, WattPower pmin,
                        double q_at_pmin = 7.0);

/**
 * Validate precomputed per-mode received powers against @p pmin.
 *
 * @param received_per_mode received_per_mode[m][d] is the power that
 *        destination d's tap sees when the source drives mode m, in
 *        watts (as returned by SplitterChain::evaluate, possibly under
 *        a device-variation draw).
 * @param mode_of_dest Minimum mode per destination; the entry at
 *        @p source is ignored.
 *
 * This is the core of validateDesign(), split out so that the
 * fault-injection subsystem can replay perturbed received powers
 * through exactly the same margin/leak/BER accounting.
 */
BudgetReport validateReceivedPowers(
    const std::vector<std::vector<double>> &received_per_mode,
    const std::vector<int> &mode_of_dest, int source, WattPower pmin,
    DecibelLoss required_margin = DecibelLoss(0.0),
    DecibelLoss max_leak = unconstrainedLeak);

/**
 * Margin of one link relative to @p pmin: 10 log10(received / pmin),
 * or -1e9 dB when the tap sees no light.  The one conversion shared by
 * the full report and the summary kernel, so both agree bit for bit.
 */
DecibelLoss linkMargin(double received, WattPower pmin);

/** Worst-case summary of one drive mode's links. */
struct ModeBudget
{
    /** Smallest received power over the mode's reachable
     *  destinations (+inf when the mode reaches none). */
    WattPower worstReceived{std::numeric_limits<double>::infinity()};
    /** linkMargin() of worstReceived; 1e9 dB when the mode reaches
     *  no destination. */
    DecibelLoss worstMargin{1e9};
    /** Largest linkMargin() over the mode's unreachable
     *  destinations; -1e9 dB when there are none. */
    DecibelLoss worstLeak{-1e9};
};

/**
 * Summary kernel of validateReceivedPowers(): for each mode, the
 * worst reachable and the loudest unreachable link of one source,
 * without the per-link BER or the links vector.  Only the extreme
 * received powers are converted to dB (log is monotone), so
 * out[m].worstMargin folded with min over modes is bit-equal to the
 * report's worstReachableMargin, and the same holds for the leak.
 *
 * Arguments as for validateReceivedPowers(); out.size() is the mode
 * count.
 */
std::vector<ModeBudget> summarizeReceivedPowers(
    const std::vector<std::vector<double>> &received_per_mode,
    const std::vector<int> &mode_of_dest, int source, WattPower pmin);

/**
 * The worst failing mode of a summarized source: the first mode, in
 * mode order, whose worstMargin is below @p threshold and strictly
 * below every earlier failing mode's; -1 when none fails.  This is
 * the mode of the first link, in validateReceivedPowers()'s
 * (mode, destination) order, that attains the smallest failing
 * margin.
 */
int worstFailingMode(const std::vector<ModeBudget> &modes,
                     DecibelLoss threshold);

/**
 * Validate a complete multi-mode design for one source.
 *
 * @param chain Waveguide power model of the source.
 * @param design The mode design (splitters, alphas, mode powers).
 * @param pmin Required tap power.
 * @param required_margin Minimum acceptable margin for reachable
 *        links (default 0 dB: exactly pmin passes).
 * @param max_leak Maximum tolerated sub-threshold level for
 *        unreachable links, relative to pmin.  Unconstrained by
 *        default: a not-yet-reachable node receiving pmin early is
 *        harmless (receivers filter by address) -- it only means two
 *        adjacent modes collapsed to the same drive power.  Pass a
 *        negative value to demand a real decision gap for the
 *        threshold circuit of Section 3.2.2.
 */
BudgetReport validateDesign(
    const SplitterChain &chain, const MultiModeDesign &design,
    WattPower pmin, DecibelLoss required_margin = DecibelLoss(0.0),
    DecibelLoss max_leak = unconstrainedLeak);

} // namespace mnoc::optics

#endif // MNOC_OPTICS_LINK_BUDGET_HH
