#include "runtime/replay.hh"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/csv.hh"
#include "common/io.hh"
#include "common/journal.hh"
#include "common/log.hh"
#include "common/manifest.hh"
#include "common/metrics.hh"
#include "common/pgm.hh"
#include "common/prng.hh"
#include "common/table.hh"
#include "core/design_io.hh"
#include "faults/variation.hh"

namespace mnoc::runtime {

namespace {

/** Deterministic scientific rendering for report numbers. */
std::string
sci(double value)
{
    std::ostringstream os;
    os << std::scientific << std::setprecision(6) << value;
    return os.str();
}

/** Replay the finished ledger's epochs under a seeded runtime fault
 *  timeline with the graceful-degradation controller, charging its
 *  reconfiguration energy into @p ledger. */
FaultReplay
replayFaults(const Replay &replay, core::EnergyLedger &ledger,
             const FaultOptions &options)
{
    FaultTimeline timeline(FaultTimelineSpec{}.scaled(options.scale),
                           replay.cores, replay.design.topology.numModes,
                           ledger.numEpochs(), options.seed);
    Prng prng(options.vseed);
    auto variation = faults::drawVariation(
        faults::VariationSpec{}.scaled(options.vtol),
        replay.ctx.crossbar.params(), replay.cores, prng);
    DegradationPolicy policy;
    policy.requiredMargin = options.linkMargin;
    auto log = runDegradationController(replay.ctx.layout, replay.design,
                                        variation, timeline, policy,
                                        &ledger);
    return {std::move(timeline), std::move(log)};
}

/** Per-epoch reliability time series: margins around the rule table,
 *  actions fired, surviving mode count, and the epoch's energy
 *  including the charged reconfiguration cells. */
void
writeReliabilityCsv(const std::string &path, const std::string &stamp,
                    const core::EnergyLedger &ledger,
                    const DegradationLog &log)
{
    CsvWriter csv(path);
    csv.writeRow({"# " + stamp});
    csv.writeRow({"epoch", "active_faults", "margin_before_db",
                  "margin_after_db", "actions", "num_modes",
                  "reconfig_energy_j", "total_energy_j"});
    for (const auto &epoch : log.epochs) {
        double window = ledger.reconfigEnergy(epoch.epoch) +
                        ledger.epochAttributedEnergy(epoch.epoch);
        csv.cell(static_cast<long long>(epoch.epoch))
            .cell(static_cast<long long>(epoch.activeFaults))
            .cell(epoch.marginBefore.dB())
            .cell(epoch.marginAfter.dB())
            .cell(static_cast<long long>(epoch.actions))
            .cell(static_cast<long long>(epoch.numModes))
            .cell(epoch.reconfigEnergy)
            .cell(window);
        csv.endRow();
    }
    csv.close();
}

/** Per-epoch adaptive time series: active candidate, actions fired,
 *  and the epoch priced under the static vs the active design. */
void
writeAdaptiveCsv(const std::string &path, const std::string &stamp,
                 const AdaptiveLog &log)
{
    CsvWriter csv(path);
    csv.writeRow({"# " + stamp});
    csv.writeRow({"epoch", "active_design", "phase_change", "actions",
                  "static_energy_j", "adaptive_energy_j",
                  "reconfig_energy_j"});
    for (const auto &epoch : log.epochs) {
        csv.cell(static_cast<long long>(epoch.epoch))
            .cell(static_cast<long long>(epoch.activeDesign))
            .cell(static_cast<long long>(epoch.phaseChange ? 1 : 0))
            .cell(static_cast<long long>(epoch.actions))
            .cell(epoch.staticEnergy)
            .cell(epoch.adaptiveEnergy)
            .cell(epoch.reconfigEnergy);
        csv.endRow();
    }
    csv.close();
}

/** @p summary as a markdown section: heading, opening sentence and a
 *  two-column table, followed by a blank line. */
void
renderMarkdown(std::ostream &out, const Summary &summary)
{
    out << "## " << summary.title << "\n\n";
    out << summary.intro << "\n\n";
    out << "| metric | value |\n";
    out << "|---|---|\n";
    for (const auto &[metric, value] : summary.rows)
        out << "| " << metric << " | " << value << " |\n";
    out << "\n";
}

} // namespace

Context::Context(int cores)
    : layout(cores, optics::defaultWaveguideLength * cores / 256.0),
      crossbar(layout, optics::DeviceParams{}), designer(crossbar)
{
}

Replay::Replay(const ReplayFiles &files)
    : design(core::loadDesign(files.design)),
      cores(design.topology.numNodes), ctx(cores),
      mapping(files.map.empty() ? core::identityMapping(cores)
                                : core::loadMapping(files.map, cores)),
      reader(files.trace), header(reader.header()),
      stamp(manifestJson(header.manifest)), dir(files.dir),
      prefix(files.prefix)
{
    // The ledger build makes the same checks; making them here too
    // fails every verb the same way before any consumer is set up.
    fatalIf(header.numNodes != cores, "trace size mismatch");
    fatalIf(header.totalTicks == 0, "trace has zero duration");
    if (journalEnabled())
        Journal::global().setManifest(stamp);
}

std::string
Replay::outputBase() const
{
    std::filesystem::create_directories(dir);
    return dir + "/" + prefix;
}

AdaptivePolicy
adaptivePolicy(const core::MnocDesign &design)
{
    AdaptivePolicy policy;
    policy.trafficWindow = static_cast<std::size_t>(adaptWindow());
    policy.candidateSpec.numModes = design.topology.numModes;
    policy.candidateSpec.assignment = core::Assignment::CommAware;
    policy.candidateSpec.weights = core::WeightSource::DesignFlow;
    return policy;
}

ReplayRun
runReplay(Replay &replay, const std::optional<FaultOptions> &faults,
          const std::optional<AdaptivePolicy> &adaptive)
{
    const core::MnocPowerModel &model = replay.ctx.designer.model();
    std::optional<core::EnergyLedger> adaptive_ledger;
    std::optional<AdaptiveController> controller;
    core::EpochObserver observe;
    if (adaptive) {
        // Shaped as the static build shapes its own ledger, so the
        // two reconcile cell for cell.
        std::size_t epochs = std::max<std::size_t>(replay.header.numEpochs, 1);
        double duration = static_cast<double>(replay.header.totalTicks) /
                          model.params().net.clockHz;
        adaptive_ledger.emplace(replay.cores, replay.design.topology.numModes,
                                epochs, duration);
        controller.emplace(replay.ctx.designer, replay.design, *adaptive,
                           replay.header, &*adaptive_ledger);
        observe = [&controller](std::size_t epoch,
                                const std::vector<noc::EpochCell> &cells) {
            controller->observe(epoch, cells);
        };
    }

    ReplayRun run{model.buildLedger(replay.design, replay.reader,
                                    &replay.mapping, observe),
                  std::nullopt, std::nullopt};
    if (faults)
        run.faults = replayFaults(replay, run.ledger, *faults);
    if (controller) {
        // Reconciled after the fault run, against the static ledger
        // as the report prices it.
        AdaptiveLog log = controller->finish();
        AdaptiveComparison comparison =
            reconcileAdaptive(run.ledger, *adaptive_ledger, log);
        run.adaptive = AdaptiveReplay{std::move(log), comparison,
                                      adaptive->trafficWindow};
    }
    return run;
}

Summary
faultSummary(const FaultReplay &run)
{
    const DegradationLog &log = run.log;
    double worst_after = 1e9;
    for (const auto &epoch : log.epochs)
        worst_after = std::min(worst_after, epoch.marginAfter.dB());
    auto count = [&log](ActionKind kind) {
        return std::to_string(log.countActions(kind));
    };
    Summary out;
    out.title = "Reliability (MNOC_FAULTS=1)";
    out.intro = "Epochs replayed under the runtime fault timeline (seed " +
                std::to_string(run.timeline.seed()) +
                ") with the graceful-degradation controller.";
    out.rows = {
        {"fault events", std::to_string(run.timeline.events().size())},
        {"trims", count(ActionKind::Trim)},
        {"relaxes", count(ActionKind::Relax)},
        {"failovers", count(ActionKind::Failover)},
        {"restores", count(ActionKind::Restore)},
        {"collapses", count(ActionKind::Collapse)},
        {"final modes", std::to_string(log.finalNumModes)},
        {"worst post-action margin (dB)", TextTable::num(worst_after, 3)},
        {"reconfiguration energy (J)", sci(log.totalReconfigEnergy)},
    };
    return out;
}

Summary
adaptiveSummary(const AdaptiveReplay &run)
{
    const AdaptiveLog &log = run.log;
    const AdaptiveComparison &cmp = run.comparison;
    auto count = [&log](AdaptiveActionKind kind) {
        return std::to_string(log.countActions(kind));
    };
    Summary out;
    out.title = "Adaptive runtime (MNOC_ADAPT=1)";
    out.intro = "Epochs replayed under the traffic-driven "
                "mode-re-selection controller (" +
                std::to_string(log.epochs.size()) +
                " epochs, MNOC_ADAPT_WINDOW=" +
                std::to_string(run.trafficWindow) +
                "); candidates re-partition the deployed mode count "
                "against the trailing traffic window.";
    out.rows = {
        {"phase changes", count(AdaptiveActionKind::PhaseChange)},
        {"retargets", count(AdaptiveActionKind::Retarget)},
        {"switches", count(AdaptiveActionKind::Switch)},
        {"candidates built", std::to_string(log.numCandidates)},
        {"final design",
         std::to_string(log.finalDesign) +
             (log.finalDesign == 0 ? " (static)" : " (retarget)")},
        {"static energy (J)", sci(cmp.staticEnergy)},
        {"adaptive energy (J)", sci(cmp.adaptiveEnergy)},
        {"savings before reconfig (J)", sci(cmp.savings)},
        {"reconfiguration energy (J)", sci(cmp.reconfigEnergy)},
        {"net savings (J)", sci(cmp.netSavings)},
    };
    if (cmp.staticEnergy > 0.0)
        out.rows.emplace_back(
            "net savings (%)",
            TextTable::num(100.0 * cmp.netSavings / cmp.staticEnergy, 3));
    return out;
}

void
printSummary(std::ostream &os, const Summary &summary)
{
    os << summary.intro << "\n";
    TextTable table;
    table.addRow({"metric", "value"});
    for (const auto &[metric, value] : summary.rows)
        table.addRow({metric, value});
    table.print(os);
}

std::vector<std::string>
writeFaultArtifacts(const Replay &replay, const ReplayRun &run)
{
    panicIf(!run.faults, "fault artifacts need a fault run");
    std::string base = replay.outputBase();
    std::string events_csv = base + "fault_events.csv";
    CsvWriter csv(events_csv);
    csv.writeRow({"# " + replay.stamp});
    csv.writeRow(
        {"kind", "start_epoch", "end_epoch", "node", "mode", "magnitude"});
    for (const auto &event : run.faults->timeline.events()) {
        csv.cell(faultKindName(event.kind))
            .cell(static_cast<long long>(event.startEpoch))
            .cell(static_cast<long long>(event.endEpoch))
            .cell(static_cast<long long>(event.node))
            .cell(static_cast<long long>(event.mode))
            .cell(event.magnitude);
        csv.endRow();
    }
    csv.close();

    std::string reliability_csv = base + "reliability.csv";
    writeReliabilityCsv(reliability_csv, replay.stamp, run.ledger,
                        run.faults->log);
    return {events_csv, reliability_csv};
}

std::vector<std::string>
writeAdaptiveArtifacts(const Replay &replay, const ReplayRun &run)
{
    panicIf(!run.adaptive, "adaptive artifacts need an adaptive run");
    std::string base = replay.outputBase();
    std::string adaptive_csv = base + "adaptive.csv";
    writeAdaptiveCsv(adaptive_csv, replay.stamp, run.adaptive->log);

    std::string actions_csv = base + "adaptive_actions.csv";
    CsvWriter csv(actions_csv);
    csv.writeRow({"# " + replay.stamp});
    csv.writeRow({"epoch", "kind", "design", "gain", "energy_cost_j"});
    for (const auto &action : run.adaptive->log.actions) {
        csv.cell(static_cast<long long>(action.epoch))
            .cell(adaptiveActionKindName(action.kind))
            .cell(static_cast<long long>(action.design))
            .cell(action.gain)
            .cell(action.energyCost);
        csv.endRow();
    }
    csv.close();
    return {adaptive_csv, actions_csv};
}

std::vector<std::string>
writeReport(const Replay &replay, const ReplayRun &run)
{
    const core::EnergyLedger &ledger = run.ledger;
    auto power = ledger.averagePower();
    std::string base = replay.outputBase();
    const std::string &prefix = replay.prefix;
    const std::string &stamp = replay.stamp;
    const sim::TraceHeader &trace_header = replay.header;
    int cores = replay.cores;
    int modes = ledger.numModes();
    std::size_t num_epochs = ledger.numEpochs();

    // Per-(source, mode) totals across epochs, and the
    // time-weighted optical-loss energy attribution.  The totals
    // walk the ledger in its epoch-major storage order; each
    // accumulator still folds its cells in epoch order.
    std::vector<core::LedgerCell> totals(static_cast<std::size_t>(cores) *
                                         static_cast<std::size_t>(modes));
    for (std::size_t e = 0; e < num_epochs; ++e) {
        for (int s = 0; s < cores; ++s) {
            for (int m = 0; m < modes; ++m) {
                auto &total = totals[static_cast<std::size_t>(s) *
                                         static_cast<std::size_t>(modes) +
                                     static_cast<std::size_t>(m)];
                const auto &cell = ledger.cell(s, m, e);
                total.flits += cell.flits;
                total.txSeconds += cell.txSeconds;
                total.sourceEnergy += cell.sourceEnergy;
                total.oeEnergy += cell.oeEnergy;
                total.electricalEnergy += cell.electricalEnergy;
            }
        }
    }
    optics::ChainLossBreakdown optical; // joules, not watts, here
    for (int s = 0; s < cores; ++s) {
        for (int m = 0; m < modes; ++m) {
            const auto &total = totals[static_cast<std::size_t>(s) *
                                           static_cast<std::size_t>(modes) +
                                       static_cast<std::size_t>(m)];
            const auto &loss = ledger.loss(s, m);
            double tx = total.txSeconds;
            optical.injected += tx * loss.injected;
            optical.sourceCoupling += tx * loss.sourceCoupling;
            optical.sourceSplit += tx * loss.sourceSplit;
            optical.waveguide += tx * loss.waveguide;
            optical.tapInsertion += tx * loss.tapInsertion;
            optical.receiverCoupling += tx * loss.receiverCoupling;
            optical.delivered += tx * loss.delivered;
            optical.residual += tx * loss.residual;
        }
    }

    // Per-(source, mode) attribution table.
    std::string power_csv = base + "power.csv";
    {
        CsvWriter csv(power_csv);
        csv.writeRow({"# " + stamp});
        csv.writeRow({"source", "mode", "flits", "tx_seconds",
                      "source_energy_j", "oe_energy_j",
                      "electrical_energy_j", "injected_w",
                      "source_coupling_w", "source_split_w", "waveguide_w",
                      "tap_insertion_w", "receiver_coupling_w",
                      "delivered_w", "residual_w"});
        for (int s = 0; s < cores; ++s) {
            for (int m = 0; m < modes; ++m) {
                const auto &total =
                    totals[static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(modes) +
                           static_cast<std::size_t>(m)];
                if (total.flits == 0)
                    continue;
                const auto &loss = ledger.loss(s, m);
                csv.cell(static_cast<long long>(s))
                    .cell(static_cast<long long>(m))
                    .cell(static_cast<long long>(total.flits))
                    .cell(total.txSeconds)
                    .cell(total.sourceEnergy)
                    .cell(total.oeEnergy)
                    .cell(total.electricalEnergy)
                    .cell(loss.injected)
                    .cell(loss.sourceCoupling)
                    .cell(loss.sourceSplit)
                    .cell(loss.waveguide)
                    .cell(loss.tapInsertion)
                    .cell(loss.receiverCoupling)
                    .cell(loss.delivered)
                    .cell(loss.residual);
                csv.endRow();
            }
        }
        csv.close();
    }

    // Per-epoch time series.
    std::string epochs_csv = base + "epochs.csv";
    {
        CsvWriter csv(epochs_csv);
        csv.writeRow({"# " + stamp});
        csv.writeRow({"epoch", "flits", "tx_seconds", "source_energy_j",
                      "oe_energy_j", "electrical_energy_j",
                      "total_energy_j"});
        for (std::size_t e = 0; e < num_epochs; ++e) {
            core::LedgerCell window;
            for (int s = 0; s < cores; ++s) {
                for (int m = 0; m < modes; ++m) {
                    const auto &cell = ledger.cell(s, m, e);
                    window.flits += cell.flits;
                    window.txSeconds += cell.txSeconds;
                    window.sourceEnergy += cell.sourceEnergy;
                    window.oeEnergy += cell.oeEnergy;
                    window.electricalEnergy += cell.electricalEnergy;
                }
            }
            csv.cell(static_cast<long long>(e))
                .cell(static_cast<long long>(window.flits))
                .cell(window.txSeconds)
                .cell(window.sourceEnergy)
                .cell(window.oeEnergy)
                .cell(window.electricalEnergy)
                .cell(window.totalEnergy());
            csv.endRow();
        }
        csv.close();
    }

    // (epoch, source) power heatmap.
    std::string pgm = base + "source_power.pgm";
    writePgmHeatmap(pgm, ledger.sourceEpochPower(), true, stamp);

    std::string report_md = base + "report.md";
    std::vector<std::string> written{report_md, power_csv, epochs_csv, pgm};

    // Per-epoch reliability time series (faulted runs only).
    if (run.faults) {
        written.push_back(base + "reliability.csv");
        writeReliabilityCsv(written.back(), stamp, ledger, run.faults->log);
    }

    // Per-epoch adaptive time series (MNOC_ADAPT=1 runs only).
    if (run.adaptive) {
        written.push_back(base + "adaptive.csv");
        writeAdaptiveCsv(written.back(), stamp, run.adaptive->log);
    }

    // Markdown summary.
    FileWriter writer(report_md);
    auto &out = writer.stream();
    out << "# mNoC energy-attribution report\n\n";
    out << "- workload: " << trace_header.workloadName << "\n";
    out << "- network: " << trace_header.networkName << "\n";
    out << "- nodes: " << cores << ", modes: " << modes << "\n";
    out << "- cycles: " << trace_header.totalTicks
        << ", duration: " << sci(ledger.durationSeconds()) << " s\n";
    out << "- epochs: " << num_epochs;
    if (ledger.messagesPerEpoch() > 0)
        out << " (" << ledger.messagesPerEpoch() << " messages each)";
    else
        out << " (whole run; trace carries no epoch buckets)";
    out << "\n";
    out << "- trace manifest: `" << stamp << "`\n\n";

    out << "## Average power (W)\n\n";
    out << "| component | power (W) |\n";
    out << "|---|---|\n";
    out << "| QD LED source | " << sci(power.source) << " |\n";
    out << "| O/E conversion | " << sci(power.oe) << " |\n";
    out << "| electrical | " << sci(power.electrical) << " |\n";
    if (run.faults)
        out << "| reconfiguration | " << sci(power.reconfig) << " |\n";
    out << "| total | " << sci(power.total()) << " |\n\n";

    out << "## Optical energy attribution (J)\n\n";
    out << "Time-weighted splitter-chain walk; buckets sum to "
           "the injected optical energy (self-checked by the "
           "ledger).\n\n";
    out << "| bucket | energy (J) |\n";
    out << "|---|---|\n";
    out << "| injected | " << sci(optical.injected) << " |\n";
    out << "| source coupling | " << sci(optical.sourceCoupling) << " |\n";
    out << "| source split | " << sci(optical.sourceSplit) << " |\n";
    out << "| waveguide | " << sci(optical.waveguide) << " |\n";
    out << "| tap insertion | " << sci(optical.tapInsertion) << " |\n";
    out << "| receiver coupling | " << sci(optical.receiverCoupling)
        << " |\n";
    out << "| delivered | " << sci(optical.delivered) << " |\n";
    out << "| residual | " << sci(optical.residual) << " |\n\n";

    if (run.faults)
        renderMarkdown(out, faultSummary(*run.faults));
    if (run.adaptive)
        renderMarkdown(out, adaptiveSummary(*run.adaptive));

    out << "## Artifacts\n\n";
    out << "- per-(source, mode) attribution: " << prefix << "power.csv\n";
    out << "- per-epoch time series: " << prefix << "epochs.csv\n";
    out << "- (epoch, source) power heatmap: " << prefix
        << "source_power.pgm\n";
    if (run.faults)
        out << "- per-epoch reliability series: " << prefix
            << "reliability.csv\n";
    if (run.adaptive)
        out << "- per-epoch adaptive series: " << prefix << "adaptive.csv\n";
    writer.close();
    return written;
}

} // namespace mnoc::runtime
