#include "optics/link_budget.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/units.hh"

namespace mnoc::optics {

double
linkBitErrorRate(WattPower received, WattPower pmin, double q_at_pmin)
{
    fatalIf(pmin <= WattPower(0.0), "pmin must be positive");
    fatalIf(q_at_pmin <= 0.0, "Q factor must be positive");
    if (received <= WattPower(0.0))
        return 0.5; // no light: coin flip
    double q = q_at_pmin * (received / pmin);
    return 0.5 * std::erfc(q / std::sqrt(2.0));
}

DecibelLoss
linkMargin(double received, WattPower pmin)
{
    return received > 0.0 ? DecibelLoss(ratioToDb(received / pmin.watts()))
                          : DecibelLoss(-1e9);
}

namespace {

/** Argument checks shared by the full report and the summary. */
void
checkReceivedPowers(
    const std::vector<std::vector<double>> &received_per_mode,
    const std::vector<int> &mode_of_dest, int source, WattPower pmin)
{
    int n = static_cast<int>(mode_of_dest.size());
    fatalIf(received_per_mode.empty(), "design has no modes");
    fatalIf(source < 0 || source >= n, "source index out of range");
    fatalIf(pmin <= WattPower(0.0), "pmin must be positive");
    for (const auto &received : received_per_mode)
        fatalIf(static_cast<int>(received.size()) != n,
                "received power vector size mismatch");
}

} // namespace

std::vector<ModeBudget>
summarizeReceivedPowers(
    const std::vector<std::vector<double>> &received_per_mode,
    const std::vector<int> &mode_of_dest, int source, WattPower pmin)
{
    checkReceivedPowers(received_per_mode, mode_of_dest, source, pmin);
    int n = static_cast<int>(mode_of_dest.size());
    int num_modes = static_cast<int>(received_per_mode.size());

    std::vector<ModeBudget> out(static_cast<std::size_t>(num_modes));
    for (int mode = 0; mode < num_modes; ++mode) {
        const auto &received = received_per_mode[mode];
        double lowest = std::numeric_limits<double>::infinity();
        double loudest = 0.0;
        for (int dest = 0; dest < n; ++dest) {
            if (dest == source)
                continue;
            double power = received[dest];
            if (mode_of_dest[dest] <= mode)
                lowest = std::min(lowest, power);
            else
                loudest = std::max(loudest, power);
        }
        ModeBudget &budget = out[static_cast<std::size_t>(mode)];
        budget.worstReceived = WattPower(lowest);
        if (lowest < std::numeric_limits<double>::infinity())
            budget.worstMargin = linkMargin(lowest, pmin);
        budget.worstLeak = linkMargin(loudest, pmin);
    }
    return out;
}

int
worstFailingMode(const std::vector<ModeBudget> &modes,
                 DecibelLoss threshold)
{
    DecibelLoss worst{1e9};
    int mode = -1;
    for (std::size_t m = 0; m < modes.size(); ++m) {
        if (modes[m].worstMargin < threshold &&
            modes[m].worstMargin < worst) {
            worst = modes[m].worstMargin;
            mode = static_cast<int>(m);
        }
    }
    return mode;
}

BudgetReport
validateReceivedPowers(
    const std::vector<std::vector<double>> &received_per_mode,
    const std::vector<int> &mode_of_dest, int source, WattPower pmin,
    DecibelLoss required_margin, DecibelLoss max_leak)
{
    checkReceivedPowers(received_per_mode, mode_of_dest, source, pmin);
    int n = static_cast<int>(mode_of_dest.size());
    int num_modes = static_cast<int>(received_per_mode.size());

    BudgetReport report;
    report.worstReachableMargin = DecibelLoss(1e9);
    report.worstUnreachableLeak = DecibelLoss(-1e9);

    for (int mode = 0; mode < num_modes; ++mode) {
        const auto &received = received_per_mode[mode];
        for (int dest = 0; dest < n; ++dest) {
            if (dest == source)
                continue;
            LinkBudget link;
            link.mode = mode;
            link.dest = dest;
            link.receivedPower = WattPower(received[dest]);
            link.reachable = mode_of_dest[dest] <= mode;
            link.margin = linkMargin(received[dest], pmin);
            link.bitErrorRate =
                linkBitErrorRate(link.receivedPower, pmin);
            if (link.reachable) {
                report.worstReachableMargin =
                    std::min(report.worstReachableMargin, link.margin);
            } else {
                report.worstUnreachableLeak =
                    std::max(report.worstUnreachableLeak, link.margin);
            }
            report.links.push_back(link);
        }
    }

    report.ok =
        report.worstReachableMargin >=
            required_margin - DecibelLoss(1e-9) &&
        report.worstUnreachableLeak <= max_leak;
    return report;
}

BudgetReport
validateDesign(const SplitterChain &chain,
               const MultiModeDesign &design, WattPower pmin,
               DecibelLoss required_margin, DecibelLoss max_leak)
{
    int n = chain.numNodes();
    int num_modes = static_cast<int>(design.modePower.size());
    fatalIf(num_modes < 1, "design has no modes");
    fatalIf(static_cast<int>(design.modeOfDest.size()) != n,
            "design size mismatch");

    std::vector<std::vector<double>> received_per_mode;
    received_per_mode.reserve(num_modes);
    for (int mode = 0; mode < num_modes; ++mode)
        received_per_mode.push_back(
            chain.evaluate(design.chain, design.modePower[mode]));
    return validateReceivedPowers(received_per_mode, design.modeOfDest,
                                  chain.source(), pmin, required_margin,
                                  max_leak);
}

} // namespace mnoc::optics
