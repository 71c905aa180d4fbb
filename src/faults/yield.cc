#include "faults/yield.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/trace_span.hh"
#include "optics/splitter_chain.hh"

namespace mnoc::faults {

namespace {

/** One draw's outcome plus its private per-mode failure tallies;
 *  draws run concurrently, so nothing here is shared. */
struct DrawRecord
{
    DrawOutcome outcome;
    std::vector<long long> marginFailuresByMode;
    std::vector<long long> leakFailuresByMode;
};

/** Replay every source under one draw and fold the link budgets. */
DrawRecord
runDraw(const optics::SerpentineLayout &layout,
        const std::vector<optics::MultiModeDesign> &sources,
        const DeviceVariation &variation,
        const YieldCriteria &criteria, int num_modes)
{
    int n = static_cast<int>(sources.size());
    WattPower pmin = variation.params.pminAtTap();
    DecibelLoss required = criteria.requiredMargin - DecibelLoss(1e-9);

    DrawRecord record;
    record.marginFailuresByMode.assign(
        static_cast<std::size_t>(num_modes), 0);
    record.leakFailuresByMode.assign(
        static_cast<std::size_t>(num_modes), 0);
    DrawOutcome &outcome = record.outcome;
    outcome.pass = true;
    outcome.worstMargin = DecibelLoss(1e9);
    outcome.worstLeak = DecibelLoss(-1e9);
    outcome.worstBitErrorRate = 0.0;

    std::vector<WattPower> injected;
    std::vector<optics::ModeBudget> modes;
    optics::LinkBudgetScratch scratch;
    for (int s = 0; s < n; ++s) {
        const auto &design = sources[s];
        int source_modes = static_cast<int>(design.modePower.size());
        optics::SplitterChain chain(layout, variation.params, s);
        const std::vector<double> &scale = variation.splitterScale[s];

        injected.clear();
        for (int m = 0; m < source_modes; ++m)
            injected.push_back(design.modePower[m] *
                               variation.ledOutputScale[s]);
        optics::summarizeLinkBudget(chain, design.chain, injected, scale,
                                    design.modeOfDest, pmin, modes,
                                    scratch);
        DecibelLoss margin{1e9};
        DecibelLoss leak{-1e9};
        WattPower weakest{std::numeric_limits<double>::infinity()};
        for (int m = 0; m < source_modes; ++m) {
            const optics::ModeBudget &budget = modes[m];
            margin = std::min(margin, budget.worstMargin);
            leak = std::max(leak, budget.worstLeak);
            weakest = std::min(weakest, budget.worstReceived);
            // Only a mode whose extreme link fails can hold failing
            // links; replay that mode's vector to count them.
            if (budget.worstMargin >= required &&
                budget.worstLeak <= criteria.maxLeak)
                continue;
            auto received = chain.evaluate(design.chain, injected[m], scale);
            for (int d = 0; d < n; ++d) {
                if (d == s)
                    continue;
                DecibelLoss link = optics::linkMargin(received[d], pmin);
                if (design.modeOfDest[d] <= m) {
                    if (link < required) {
                        ++outcome.marginFailures;
                        ++record.marginFailuresByMode[m];
                    }
                } else if (link > criteria.maxLeak) {
                    ++outcome.leakFailures;
                    ++record.leakFailuresByMode[m];
                }
            }
        }
        // BER falls with received power: the weakest reachable link
        // carries the source's worst BER.
        outcome.worstBitErrorRate = std::max(
            outcome.worstBitErrorRate,
            optics::linkBitErrorRate(weakest, pmin));
        outcome.worstMargin = std::min(outcome.worstMargin, margin);
        outcome.worstLeak = std::max(outcome.worstLeak, leak);
        outcome.pass = outcome.pass && margin >= required &&
                       leak <= criteria.maxLeak;
    }
    return record;
}

} // namespace

YieldReport
analyzeYield(const optics::SerpentineLayout &layout,
             const optics::DeviceParams &nominal,
             const std::vector<optics::MultiModeDesign> &sources,
             const VariationSpec &spec, int trials, std::uint64_t seed,
             const YieldCriteria &criteria, ThreadPool *pool)
{
    spec.validate();
    int n = static_cast<int>(sources.size());
    fatalIf(n != layout.numNodes(),
            "yield analysis needs one design per layout node");
    fatalIf(trials < 1, "yield analysis needs at least one trial");

    int num_modes = 0;
    for (int s = 0; s < n; ++s) {
        fatalIf(sources[s].chain.source != s,
                "per-source designs must be indexed by source");
        num_modes = std::max(
            num_modes, static_cast<int>(sources[s].modePower.size()));
    }

    YieldReport report;
    report.trials = trials;
    report.seed = seed;
    report.spec = spec;
    report.marginFailuresByMode.assign(
        static_cast<std::size_t>(num_modes), 0);
    report.leakFailuresByMode.assign(
        static_cast<std::size_t>(num_modes), 0);

    // Draw t is a pure function of deriveSeed(seed, t): each draw
    // owns its slot of `records`, so any thread interleaving writes
    // the same contents.
    TraceSpan span("analyzeYield", "faults");
    auto &metrics = MetricsRegistry::global();
    Counter &draw_tally = metrics.counter("yield.draws");
    Counter &pass_tally = metrics.counter("yield.passes");
    Histogram &margin_hist = metrics.histogram(
        "yield.worst_margin_db",
        {-3.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0});
    ThreadPool &workers = pool != nullptr ? *pool
                                          : ThreadPool::global();
    std::vector<DrawRecord> records(
        static_cast<std::size_t>(trials));
    workers.parallelFor(trials, [&](long long t) {
        Prng draw_prng(
            deriveSeed(seed, static_cast<std::uint64_t>(t)));
        auto variation = drawVariation(spec, nominal, n, draw_prng);
        records[static_cast<std::size_t>(t)] =
            runDraw(layout, sources, variation, criteria, num_modes);
        // Integer tallies and a commutative histogram fold: the
        // registry stays bit-identical at any thread count
        // (DESIGN.md §10).
        const DrawOutcome &outcome =
            records[static_cast<std::size_t>(t)].outcome;
        draw_tally.add();
        if (outcome.pass)
            pass_tally.add();
        margin_hist.observe(outcome.worstMargin.dB());
    });

    // Ordered reduction in draw order: the aggregates below are
    // identical at any thread count because the fold order is the
    // slot order, never the completion order.
    report.draws.reserve(static_cast<std::size_t>(trials));
    int passes = 0;
    std::vector<double> margins;
    std::vector<double> bers;
    margins.reserve(static_cast<std::size_t>(trials));
    bers.reserve(static_cast<std::size_t>(trials));
    for (const auto &record : records) {
        passes += record.outcome.pass ? 1 : 0;
        margins.push_back(record.outcome.worstMargin.dB());
        bers.push_back(record.outcome.worstBitErrorRate);
        for (int m = 0; m < num_modes; ++m) {
            report.marginFailuresByMode[m] +=
                record.marginFailuresByMode[m];
            report.leakFailuresByMode[m] +=
                record.leakFailuresByMode[m];
        }
        report.draws.push_back(record.outcome);
    }

    report.yield = static_cast<double>(passes) / trials;
    report.marginMean = DecibelLoss(mean(margins));
    report.marginMin = DecibelLoss(minOf(margins));
    std::sort(margins.begin(), margins.end());
    report.marginP5 = DecibelLoss(
        margins[static_cast<std::size_t>(0.05 * (trials - 1))]);
    report.berWorstMean = mean(bers);
    report.berWorstMax = maxOf(bers);
    return report;
}

} // namespace mnoc::faults
