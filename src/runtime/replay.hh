/**
 * @file
 * The trace-replay verbs as a library: the setup that `mnocpt
 * evaluate`, `faults`, `adapt` and `report` share, the one pass over
 * the trace that feeds every consumer, the fault and adaptive run
 * summaries, and the artifact writers including the report renderer.
 *
 * One trace pass per verb: runReplay() opens no reader of its own.
 * The static ledger build (MnocPowerModel::buildLedger) is the only
 * loop over the trace's epochs; the adaptive controller steps inside
 * it as its epoch observer, and the degradation controller then runs
 * over the finished ledger.  A `MNOC_FAULTS=1 MNOC_ADAPT=1 report`
 * therefore reads the trace exactly once, as does every verb.
 *
 * Artifacts and the journal header are stamped with the *trace's*
 * manifest, not this invocation's, so re-rendering a stored trace is
 * byte-stable at any pool size.
 */

#ifndef MNOC_RUNTIME_REPLAY_HH
#define MNOC_RUNTIME_REPLAY_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "optics/crossbar.hh"
#include "optics/serpentine_layout.hh"
#include "runtime/adaptive_controller.hh"
#include "runtime/degradation_controller.hh"
#include "runtime/fault_timeline.hh"
#include "sim/trace_stream.hh"

namespace mnoc::runtime {

/** Layout, crossbar and designer of a radix-@p cores mNoC. */
struct Context
{
    explicit Context(int cores);

    optics::SerpentineLayout layout;
    optics::OpticalCrossbar crossbar;
    core::Designer designer;
};

/** The files a replay reads and where it writes. */
struct ReplayFiles
{
    std::string design;
    std::string trace;
    /** Thread-to-core mapping file; empty for the identity. */
    std::string map;
    /** Output directory, created on the first write. */
    std::string dir = ".";
    /** File-name prefix of every artifact. */
    std::string prefix = "mnoc_";
};

/**
 * A replay's inputs: the design, its context, the mapping and an
 * unread reader on the trace, checked against each other up front.
 */
struct Replay
{
    explicit Replay(const ReplayFiles &files);

    /** Create the output directory and return "<dir>/<prefix>". */
    std::string outputBase() const;

    core::MnocDesign design;
    int cores;
    Context ctx;
    std::vector<int> mapping;
    sim::TraceReader reader;
    const sim::TraceHeader &header;
    /** JSON of the trace's manifest, the artifacts' stamp. */
    std::string stamp;
    std::string dir;
    std::string prefix;
};

/** The `faults` flags --seed, --fault-scale, --vtol (sigma scale of
 *  the as-fabricated draw; 0 is a nominal die), --vseed and
 *  --link-margin.  Their defaults, with the seed from
 *  MNOC_FAULT_SEED, are what the MNOC_FAULTS=1 report runs. */
struct FaultOptions
{
    std::uint64_t seed = 1;
    double scale = 1.0;
    double vtol = 0.0;
    std::uint64_t vseed = 1;
    DecibelLoss linkMargin{0.0};
};

/** A fault replay's seeded schedule and the controller's record. */
struct FaultReplay
{
    FaultTimeline timeline;
    DegradationLog log;
};

/** Rule-table knobs shared by `adapt` and the MNOC_ADAPT report
 *  section: struct defaults, the pricing/phase window from
 *  MNOC_ADAPT_WINDOW, and retarget candidates re-partitioned
 *  comm-aware with design-flow weighting at @p design's mode count. */
AdaptivePolicy adaptivePolicy(const core::MnocDesign &design);

/** An adaptive replay's run record and its reconciliation. */
struct AdaptiveReplay
{
    AdaptiveLog log;
    AdaptiveComparison comparison;
    /** The policy's traffic window. */
    std::size_t trafficWindow = 0;
};

/** Everything one pass over a replay's trace produced. */
struct ReplayRun
{
    /** The deployed design's ledger, with the fault run's
     *  reconfiguration energy charged when there is one. */
    core::EnergyLedger ledger;
    std::optional<FaultReplay> faults;
    std::optional<AdaptiveReplay> adaptive;
};

/**
 * The one pass: build the deployed design's static ledger from
 * @p replay's reader and, when @p adaptive is set, step the adaptive
 * controller with @p adaptive's policy on every epoch of that same
 * build, accruing into a ledger of its own.  Then, when @p faults is
 * set, replay the finished ledger's epochs under the seeded fault
 * timeline with the graceful-degradation controller, charging its
 * reconfiguration energy into the static ledger; and last reconcile
 * the adaptive ledger against the static one.  Consumes the reader.
 */
ReplayRun runReplay(Replay &replay,
                    const std::optional<FaultOptions> &faults,
                    const std::optional<AdaptivePolicy> &adaptive);

/** A run summary: the report section's title and opening sentence
 *  and its (metric, value) rows. */
struct Summary
{
    std::string title;
    std::string intro;
    std::vector<std::pair<std::string, std::string>> rows;
};

/** The fault run's summary (the report's reliability section). */
Summary faultSummary(const FaultReplay &run);

/** The adaptive run's summary (the report's adaptive section). */
Summary adaptiveSummary(const AdaptiveReplay &run);

/** Print @p summary's opening sentence and its rows as a table. */
void printSummary(std::ostream &os, const Summary &summary);

/** Write `faults`' artifacts: the fault event log and the per-epoch
 *  reliability series.  Returns their paths in that order. */
std::vector<std::string> writeFaultArtifacts(const Replay &replay,
                                             const ReplayRun &run);

/** Write `adapt`'s artifacts: the per-epoch adaptive series and the
 *  action log.  Returns their paths in that order. */
std::vector<std::string> writeAdaptiveArtifacts(const Replay &replay,
                                                const ReplayRun &run);

/**
 * Render the energy-attribution report: the markdown summary, the
 * per-(source, mode) and per-epoch CSV tables, the (epoch, source)
 * power heatmap, and the reliability and adaptive series of the runs
 * @p run carries.  Returns the written paths, report.md first.
 */
std::vector<std::string> writeReport(const Replay &replay,
                                     const ReplayRun &run);

} // namespace mnoc::runtime

#endif // MNOC_RUNTIME_REPLAY_HH
