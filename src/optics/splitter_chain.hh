/**
 * @file
 * Waveguide splitter-chain power model and exact splitter design
 * (paper Equation 2 and Appendix A).
 *
 * A source injects optical power into its dedicated serpentine waveguide;
 * the power splits left/right at the source and each destination's
 * splitter diverts a fraction S_j to that node's receiver.  Given
 * per-destination received-power targets, the minimal injected power and
 * the exact splitter fractions follow from a backward recurrence along
 * each arm.  With that exact design, the minimal injected power equals
 * sum_j target_j * A(i, j) where A is the purely geometric attenuation
 * from the LED output to j's receiver (coupler, source splitter
 * insertion, propagation, and the destination tap's insertion loss) --
 * the power-conservation form of the paper's Equation 2.
 *
 * Loss convention: pass-through light at a destination's splitter
 * suffers only the designed (1 - S) division plus propagation loss; the
 * 0.2 dB splitter insertion loss (Table 3) is charged to the diverted
 * branch, and once at the source's own directional splitter.  Weakly
 * coupled evanescent taps behave this way, and the alternative --
 * charging every pass-through -- would accumulate more than 50 dB over
 * a radix-256 serpentine, contradicting the paper's scalability claim
 * and the shape of its Figures 3 and 6.
 */

#ifndef MNOC_OPTICS_SPLITTER_CHAIN_HH
#define MNOC_OPTICS_SPLITTER_CHAIN_HH

#include <limits>
#include <vector>

#include "optics/device_params.hh"
#include "optics/serpentine_layout.hh"

namespace mnoc::optics {

/**
 * Result of a splitter-chain design for one source waveguide.
 *
 * splitterFraction[j] is the fraction of the power arriving at node j
 * that its splitter diverts to the local receiver (S_j in the paper);
 * the entry at the source index holds the left-arm share of the source's
 * own directional splitter instead.
 */
struct ChainDesign
{
    /** Source node that owns this waveguide. */
    int source = -1;
    /** S_j per node; entry [source] is the left-arm power share. */
    std::vector<double> splitterFraction;
    /** Minimal optical power at the QD LED output. */
    WattPower injectedPower;
    /** The per-destination tap targets the design was solved for, in
     *  watts per node. */
    std::vector<double> targets;
};

/**
 * Where the injected optical power of one waveguide goes, in watts.
 * Every photon leaving the QD LED lands in exactly one bucket, so
 * the buckets sum to the injected power; lossBreakdown() enforces
 * that conservation with a panic-level self-check.
 */
struct ChainLossBreakdown
{
    /** Power at the QD LED output. */
    double injected = 0.0;
    /** Lost in the LED-side coupler. */
    double sourceCoupling = 0.0;
    /** Insertion loss of the source's directional splitter. */
    double sourceSplit = 0.0;
    /** Propagation loss along both serpentine arms. */
    double waveguide = 0.0;
    /** Insertion loss of the destination taps (diverted branch). */
    double tapInsertion = 0.0;
    /** Lost in the receiver-side couplers. */
    double receiverCoupling = 0.0;
    /** Reaches the photodetectors (signal plus receiver margin). */
    double delivered = 0.0;
    /** Exits the arm ends unused. */
    double residual = 0.0;

    /** Sum of every sink bucket; equals injected by conservation. */
    double
    accountedFor() const
    {
        return sourceCoupling + sourceSplit + waveguide +
               tapInsertion + receiverCoupling + delivered + residual;
    }
};

/**
 * Extreme tap powers of one drive mode, in watts: what a link-budget
 * check needs of the mode's received-power vector.
 */
struct TapExtremes
{
    /** Smallest power over the mode's reachable destinations (+inf
     *  when the mode reaches none). */
    double weakestReachable = std::numeric_limits<double>::infinity();
    /** Largest power over the mode's unreachable destinations (0 when
     *  there are none). */
    double loudestUnreachable = 0.0;
};

/**
 * Power-propagation model for a single source's serpentine waveguide.
 *
 * Construction precomputes the geometric tap attenuations; design() and
 * evaluate() then run in O(N).
 */
class SplitterChain
{
  public:
    /**
     * @param layout Serpentine geometry shared by all waveguides.
     * @param params Optical device parameters.
     * @param source Index of the node owning this waveguide.
     */
    SplitterChain(const SerpentineLayout &layout,
                  const DeviceParams &params, int source);

    int source() const { return source_; }
    int numNodes() const { return static_cast<int>(tapAtten_.size()); }

    /**
     * Geometric attenuation from the QD LED output to node @p dest's
     * receiver: injected watts required per watt delivered through the
     * destination's tap (coupler, source split insertion, propagation,
     * tap insertion).  Excludes the (1 - S_k) diversion factors, which
     * the exact design accounts for by construction.
     */
    LinearFactor tapAttenuation(int dest) const;

    /**
     * Solve for the splitter fractions and minimal injected power that
     * deliver exactly @p tap_targets watts to every destination tap.
     *
     * @param tap_targets Per-node received-power target, in watts per
     *        node; the entry at the source index must be zero (a source
     *        does not listen on its own waveguide).
     * @return The exact design; splitter fractions lie in [0, 1].
     */
    ChainDesign design(const std::vector<double> &tap_targets) const;

    /**
     * Forward-propagate @p injected_power through @p design and return
     * the power delivered to every node's tap, in watts per node.  Used
     * to verify designs and to compute received power in scaled
     * (higher) modes.
     */
    std::vector<double> evaluate(const ChainDesign &design,
                                 WattPower injected_power) const;

    /**
     * evaluate() under per-node splitter-ratio variation: node j's
     * designed split ratio S_j/(1-S_j) (and the source's left-arm
     * share) is scaled by @p splitter_scale[j] before propagation.
     * Perturbing the ratio rather than the diverted fraction keeps
     * both arms of an interior splitter non-zero -- the exact design
     * legitimately places near-unity fractions mid-arm (a mode-0
     * neighbour ahead of a tail of tiny alpha targets), and a
     * fraction clamped to exactly 1 would starve every downstream
     * node.  This is the fault-injection hook: construct the chain
     * with DeviceParams::perturbed() for the global loss skews and
     * pass the per-splitter draw here.
     */
    std::vector<double>
    evaluate(const ChainDesign &design, WattPower injected_power,
             const std::vector<double> &splitter_scale) const;

    /**
     * Every mode's TapExtremes in one walk of each arm: the multi-mode
     * fold of evaluate(design, injected[m], splitter_scale) over the
     * destinations, with destination d reachable in mode m when
     * mode_of_dest[d] <= m.
     *
     * Each node's perturbed split fraction is computed once and every
     * mode's arm power advances through evaluate()'s own sequence of
     * multiplications; a node past a mode's early break reads 0 W, as
     * in evaluate().  The folded powers are therefore the doubles
     * evaluate() returns, and min/max of equal values do not depend
     * on the fold order, so out[m] is bit-equal to folding
     * evaluate()'s vector for mode m.
     *
     * @param injected Injected power per mode; its size is the mode
     *        count and out is resized to match.
     * @param splitter_scale As for evaluate(); empty for none.
     * @param mode_of_dest Minimum mode per destination; the entry at
     *        the source is ignored.
     * @param arm_power Working storage for the per-mode arm powers;
     *        reusing it across calls keeps the walk allocation-free.
     */
    void foldTapExtremes(const ChainDesign &design,
                         const std::vector<WattPower> &injected,
                         const std::vector<double> &splitter_scale,
                         const std::vector<int> &mode_of_dest,
                         std::vector<TapExtremes> &out,
                         std::vector<double> &arm_power) const;

    /**
     * Propagate @p injected_power through @p design while attributing
     * every lost or delivered watt to a loss bucket.  The buckets sum
     * to the injected power (photon conservation).
     *
     * @throws PanicError when the accounted power deviates from the
     *         injected power by more than a 1e-9 relative tolerance
     *         -- that would mean the model leaks or invents energy.
     */
    ChainLossBreakdown lossBreakdown(const ChainDesign &design,
                                     WattPower injected_power) const;

  private:
    /** Propagation transmission of the waveguide segment between
     *  adjacent nodes @p a and @p a+1 (no splitter insertion),
     *  served from the cache precomputed at construction. */
    LinearFactor segmentTransmission(int a) const;

    const SerpentineLayout &layout_;
    DeviceParams params_;
    int source_;
    /** Precomputed geometric attenuation per destination. */
    std::vector<LinearFactor> tapAtten_;
    /** Precomputed segment transmissions; entry a covers the
     *  waveguide between adjacent nodes a and a+1. */
    std::vector<LinearFactor> segTrans_;
    /** Transmission from LED output to the waveguide arms. */
    LinearFactor sourceFeedTransmission_;
};

} // namespace mnoc::optics

#endif // MNOC_OPTICS_SPLITTER_CHAIN_HH
