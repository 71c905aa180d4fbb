/**
 * @file
 * End-to-end design facade tying the pieces together with the paper's
 * design notation (Table 5): number of modes (1M/2M/4M), thread
 * mapping (T), mode assignment (N = distance-based, G = general
 * communication-aware, C = clustered), and splitter-design weighting
 * (U = uniform, W = fixed fractions, S = sampled traffic).
 */

#ifndef MNOC_CORE_DESIGNER_HH
#define MNOC_CORE_DESIGNER_HH

#include <string>
#include <vector>

#include "core/baseline_models.hh"
#include "core/builders.hh"
#include "core/comm_aware.hh"
#include "core/power_model.hh"
#include "core/thread_mapper.hh"
#include "faults/yield.hh"
#include "sim/trace.hh"

namespace mnoc::core {

/** Mode-assignment strategies (Table 5's N/G/C). */
enum class Assignment
{
    DistanceBased,  ///< N: nearest groups on the waveguide
    CommAware,      ///< G: frequency-sorted, power-optimized partition
    Clustered,      ///< C(onventional): Figure 5a clusters
};

/** Splitter-design weighting sources (Table 5's U/W/S). */
enum class WeightSource
{
    Uniform,    ///< U: every destination equally likely
    Fractions,  ///< W: fixed per-mode fractions (e.g. 66%/33%)
    DesignFlow, ///< S: sampled traffic (S4 / S12 / app-specific)
};

/** One named design point, e.g. 4M_T_G_S12. */
struct DesignSpec
{
    int numModes = 1;
    MappingMethod mapping = MappingMethod::Identity;
    Assignment assignment = Assignment::DistanceBased;
    WeightSource weights = WeightSource::Uniform;
    /** Per-mode fractions when weights == Fractions. */
    std::vector<double> fractions;
    /** Suffix for the S weighting label ("4", "12", "app"). */
    std::string sampleTag;

    /** The paper's notation for this spec (e.g. "2M_T_N_U"). */
    std::string label() const;
};

/** Knobs of the yield-hardening loop. */
struct ResilienceParams
{
    /** Device-variation sigmas to harden against. */
    faults::VariationSpec variation;
    /** Fraction of Monte Carlo draws that must hold their budgets. */
    double yieldTarget = 0.95;
    /** Draws per yield evaluation. */
    int trials = 200;
    /** Seed of the yield analysis (reports are seed-reproducible). */
    std::uint64_t seed = 1;
    /** Margin added per hardening iteration. */
    DecibelLoss marginStep{0.5};
    /** Largest design margin the QD LED drivers can supply; beyond it
     *  the loop degrades the mode set instead. */
    DecibelLoss maxMargin{6.0};
    /** Thresholds every draw is validated against. */
    faults::YieldCriteria criteria;
};

/** One record of the hardening loop's trajectory. */
struct DegradationStep
{
    enum class Kind
    {
        Margin,  ///< designed and yield-tested at a margin point
        Collapse ///< merged a mode into the next-higher-power mode
    };
    Kind kind = Kind::Margin;
    /** Mode count in effect after this step. */
    int numModes = 0;
    /** Mode merged upward (Collapse steps only). */
    int collapsedMode = -1;
    /** Design margin in effect. */
    DecibelLoss margin;
    /** Measured yield (Margin steps; -1 on Collapse records). */
    double yield = -1.0;
};

/** Serializable outcome of the hardening loop. */
struct ResilienceSummary
{
    double yieldTarget = 0.0;
    int trials = 0;
    std::uint64_t seed = 0;
    faults::VariationSpec spec;
    double finalYield = 0.0;
    DecibelLoss finalMargin;
    int finalNumModes = 0;
    bool metTarget = false;
    /** The degradation path: every margin raise and mode collapse the
     *  loop took, in order. */
    std::vector<DegradationStep> path;
};

/** A hardened design plus the evidence it was hardened on. */
struct ResilientDesign
{
    MnocDesign design;
    /** Yield report of the emitted design. */
    faults::YieldReport yield;
    ResilienceSummary summary;
};

/**
 * Orchestrates mapping, topology construction, splitter design and
 * power evaluation against a shared crossbar and power model.
 */
class Designer
{
  public:
    Designer(const optics::OpticalCrossbar &crossbar,
             const PowerParams &params = {});

    /** Thread-mapping step (per application). */
    MappingResult map(const FlowMatrix &thread_flow,
                      MappingMethod method,
                      const MappingParams &params = {}) const;

    /**
     * Build the mode assignment named by @p spec.
     * @param core_design_flow Design-time traffic in core coordinates
     *        (already permuted by the design-time mapping); only used
     *        by the communication-aware assignment.
     */
    GlobalPowerTopology buildTopology(
        const DesignSpec &spec,
        const FlowMatrix &core_design_flow) const;

    /**
     * Solve the splitter design for @p topology per @p spec.
     * @param design_margin Extra margin designed into every tap
     *        target (see MnocPowerModel::designFor).
     */
    MnocDesign buildDesign(const DesignSpec &spec,
                           const GlobalPowerTopology &topology,
                           const FlowMatrix &core_design_flow,
                           DecibelLoss design_margin =
                               DecibelLoss(0.0)) const;

    /**
     * Harden @p spec's design until its Monte Carlo yield under
     * @p resilience.variation reaches the target, never emitting an
     * invalid design.
     *
     * The loop first buys yield with margin (raising the design's
     * pmin operating point in marginStepDb increments up to
     * maxMarginDb); when margin is exhausted it degrades gracefully by
     * collapsing the worst-failing mode into the next-higher-power
     * mode and restarting the margin sweep, ultimately reaching the
     * single-mode broadcast topology.  Every step is recorded in the
     * returned summary's degradation path.  If even broadcast at
     * maximum margin misses the target, the best design seen is
     * emitted with metTarget == false -- but the emitted design always
     * holds its nominal (unperturbed) link budgets.
     */
    ResilientDesign buildResilientDesign(
        const DesignSpec &spec, const GlobalPowerTopology &topology,
        const FlowMatrix &core_design_flow,
        const ResilienceParams &resilience) const;

    /**
     * Average power of @p design over @p thread_trace run under
     * @p thread_to_core (a permutation; fatal otherwise).
     */
    PowerBreakdown evaluate(const MnocDesign &design,
                            const sim::Trace &thread_trace,
                            const std::vector<int> &thread_to_core) const;

    const MnocPowerModel &model() const { return model_; }
    const optics::OpticalCrossbar &crossbar() const { return crossbar_; }

  private:
    const optics::OpticalCrossbar &crossbar_;
    MnocPowerModel model_;
};

} // namespace mnoc::core

#endif // MNOC_CORE_DESIGNER_HH
