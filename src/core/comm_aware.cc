#include "core/comm_aware.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "optics/alpha_optimizer.hh"

namespace mnoc::core {

namespace {

/**
 * Per-source working state: destinations sorted by design flow
 * (descending), with prefix sums of tap attenuation and flow so any
 * contiguous partition of the sorted list evaluates in O(M).
 */
struct SortedDests
{
    std::vector<int> order;       // destination ids, hottest first
    std::vector<double> attenPrefix; // attenPrefix[k] = sum of first k
    std::vector<double> flowPrefix;  // flowPrefix[k] = sum of first k

    SortedDests(const optics::OpticalCrossbar &crossbar, int source,
                const FlowMatrix &flow, double band_factor)
    {
        int n = crossbar.numNodes();
        const auto &chain = crossbar.chain(source);
        order.reserve(n - 1);
        double max_flow = 0.0;
        for (int d = 0; d < n; ++d) {
            if (d == source)
                continue;
            order.push_back(d);
            max_flow = std::max(max_flow, flow(source, d));
        }
        bool any_flow = max_flow > 0.0;

        // Band index: 0 for the hottest destinations, increasing as
        // flow falls off by powers of band_factor; flows inside a band
        // order by attenuation so near-uniform traffic keeps distance
        // locality.
        auto band_of = [&](int d) {
            if (band_factor <= 1.0)
                return 0;
            double f = flow(source, d);
            if (!(f > 0.0) || max_flow <= 0.0)
                return 1000000;
            return static_cast<int>(std::floor(
                std::log(max_flow / f) / std::log(band_factor)));
        };
        std::vector<int> band(static_cast<std::size_t>(n), 0);
        std::vector<double> atten(static_cast<std::size_t>(n), 0.0);
        for (int d : order) {
            band[static_cast<std::size_t>(d)] = band_of(d);
            atten[static_cast<std::size_t>(d)] =
                chain.tapAttenuation(d).value();
        }

        std::sort(order.begin(), order.end(), [&](int a, int b) {
            auto ia = static_cast<std::size_t>(a);
            auto ib = static_cast<std::size_t>(b);
            if (band_factor > 1.0) {
                if (band[ia] != band[ib])
                    return band[ia] < band[ib];
            } else {
                double fa = flow(source, a);
                double fb = flow(source, b);
                if (fa != fb)
                    return fa > fb;
            }
            // Within a band (or on exact ties): cheaper destinations
            // first, so close nodes pack into low modes.
            if (atten[ia] != atten[ib])
                return atten[ia] < atten[ib];
            return a < b;
        });

        attenPrefix.assign(order.size() + 1, 0.0);
        flowPrefix.assign(order.size() + 1, 0.0);
        for (std::size_t k = 0; k < order.size(); ++k) {
            attenPrefix[k + 1] =
                attenPrefix[k] +
                atten[static_cast<std::size_t>(order[k])];
            // With no design traffic at all, fall back to uniform
            // per-destination weight (every destination equally likely).
            double f = any_flow ? flow(source, order[k]) : 1.0;
            flowPrefix[k + 1] = flowPrefix[k] + f;
        }
    }

    int count() const { return static_cast<int>(order.size()); }

    /**
     * Expected-power objective of the contiguous partition whose mode
     * boundaries are @p bounds (bounds[m] = first sorted index of mode
     * m+1; bounds.size() == numModes-1).  Returns objective/pmin.
     * Solves in a scratch buffer kept across calls: the sweep
     * evaluates thousands of partitions per source.
     */
    double
    evaluate(const std::vector<int> &bounds) const
    {
        std::size_t m = bounds.size() + 1;
        scratch.resize(3 * m);
        double *cost = scratch.data();
        double *weight = cost + m;
        int prev = 0;
        for (std::size_t i = 0; i < m; ++i) {
            int end = i + 1 < m ? bounds[i] : count();
            cost[i] = attenPrefix[end] - attenPrefix[prev];
            weight[i] = flowPrefix[end] - flowPrefix[prev];
            prev = end;
        }
        return optics::solveAlpha(cost, weight, m,
                                  optics::kDefaultMinAlpha, weight + m);
    }

  private:
    /** evaluate()'s cost, weight and alpha rows. */
    mutable std::vector<double> scratch;
};

/** Built-in candidate fractions for M >= 3 (paper Section 4.3). */
std::vector<std::vector<double>>
defaultCandidates(int num_modes)
{
    std::vector<std::vector<double>> out;
    // Equal split.
    out.emplace_back(num_modes, 1.0 / num_modes);
    if (num_modes == 4) {
        // The paper's explicit 255-destination partitions, as
        // fractions: {64,64,64,63}, {1,1,2,251}, {4,120,53,78}.
        out.push_back({64.0 / 255, 64.0 / 255, 64.0 / 255, 63.0 / 255});
        out.push_back({1.0 / 255, 1.0 / 255, 2.0 / 255, 251.0 / 255});
        out.push_back({4.0 / 255, 120.0 / 255, 53.0 / 255, 78.0 / 255});
        // A geometric ramp as an extra starting point.
        out.push_back({0.03, 0.12, 0.35, 0.50});
    } else {
        // Geometric ramp: each mode twice the previous.
        std::vector<double> geo(num_modes);
        double total = 0.0;
        for (int i = 0; i < num_modes; ++i) {
            geo[i] = std::pow(2.0, i);
            total += geo[i];
        }
        for (double &g : geo)
            g /= total;
        out.push_back(geo);
    }
    return out;
}

/** Convert fractions of @p count into boundary indices. */
std::vector<int>
fractionsToBounds(const std::vector<double> &fractions, int count)
{
    std::vector<int> bounds;
    double acc = 0.0;
    for (std::size_t i = 0; i + 1 < fractions.size(); ++i) {
        acc += fractions[i];
        int b = static_cast<int>(std::lround(acc * count));
        bounds.push_back(b);
    }
    // Enforce strictly increasing bounds in [1, count-1] so every mode
    // keeps at least one destination.
    int lo = 1;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        bounds[i] = std::max(bounds[i], lo);
        int max_allowed =
            count - static_cast<int>(bounds.size() - i);
        bounds[i] = std::min(bounds[i], max_allowed);
        lo = bounds[i] + 1;
    }
    return bounds;
}

/** Greedy +-1/2/4/8 boundary moves while they improve. */
void
refineBounds(const SortedDests &dests, std::vector<int> &bounds,
             double &best)
{
    bool improved = true;
    while (improved) {
        improved = false;
        for (std::size_t i = 0; i < bounds.size(); ++i) {
            for (int step : {8, 4, 2, 1}) {
                for (int dir : {-1, 1}) {
                    int candidate = bounds[i] + dir * step;
                    int lo = i == 0 ? 1 : bounds[i - 1] + 1;
                    int hi = i + 1 < bounds.size()
                                 ? bounds[i + 1] - 1
                                 : dests.count() - 1;
                    if (candidate < lo || candidate > hi)
                        continue;
                    int saved = bounds[i];
                    bounds[i] = candidate;
                    double obj = dests.evaluate(bounds);
                    if (obj < best - 1e-15) {
                        best = obj;
                        improved = true;
                    } else {
                        bounds[i] = saved;
                    }
                }
            }
        }
    }
}

} // namespace

WattPower
expectedSourcePower(const optics::OpticalCrossbar &crossbar, int source,
                    const std::vector<int> &mode_of_dest, int num_modes,
                    const FlowMatrix &flow)
{
    const auto &chain = crossbar.chain(source);
    int n = crossbar.numNodes();
    fatalIf(static_cast<int>(mode_of_dest.size()) != n,
            "mode assignment size mismatch");

    std::vector<double> cost(num_modes, 0.0);
    std::vector<double> weight(num_modes, 0.0);
    bool any_flow = false;
    for (int d = 0; d < n; ++d) {
        if (d == source)
            continue;
        int m = mode_of_dest[d];
        fatalIf(m < 0 || m >= num_modes, "destination mode out of range");
        cost[m] += chain.tapAttenuation(d).value();
        weight[m] += flow(source, d);
        any_flow = any_flow || flow(source, d) > 0.0;
    }
    if (!any_flow) {
        for (int d = 0; d < n; ++d)
            if (d != source)
                weight[mode_of_dest[d]] += 1.0;
    }
    double objective = optics::optimizeAlphaVector(cost, weight).objective;
    return crossbar.params().pminAtTap() * objective;
}

GlobalPowerTopology
commAwareTopology(const optics::OpticalCrossbar &crossbar,
                  const FlowMatrix &design_flow,
                  const CommAwareConfig &config)
{
    int n = crossbar.numNodes();
    fatalIf(config.numModes < 2,
            "communication-aware designs need >= 2 modes");
    fatalIf(n - 1 < config.numModes, "more modes than destinations");
    fatalIf(static_cast<int>(design_flow.rows()) != n ||
            static_cast<int>(design_flow.cols()) != n,
            "design flow matrix size mismatch");

    Matrix<int> modes(n, n, 0);
    for (int s = 0; s < n; ++s) {
        SortedDests dests(crossbar, s, design_flow,
                          config.frequencyBandFactor);
        std::vector<int> best_bounds;
        double best = 0.0;

        if (config.numModes == 2) {
            // Full binary-partition sweep (Section 4.3).
            for (int k = 1; k <= dests.count() - 1; ++k) {
                std::vector<int> bounds = {k};
                double obj = dests.evaluate(bounds);
                if (best_bounds.empty() || obj < best) {
                    best = obj;
                    best_bounds = bounds;
                }
            }
        } else {
            auto candidates = config.candidateFractions.empty()
                                  ? defaultCandidates(config.numModes)
                                  : config.candidateFractions;
            for (const auto &fractions : candidates) {
                fatalIf(static_cast<int>(fractions.size()) !=
                            config.numModes,
                        "candidate partition has wrong mode count");
                auto bounds = fractionsToBounds(fractions,
                                                dests.count());
                double obj = dests.evaluate(bounds);
                if (best_bounds.empty() || obj < best) {
                    best = obj;
                    best_bounds = bounds;
                }
            }
        }

        if (config.greedyRefine)
            refineBounds(dests, best_bounds, best);

        int mode = 0;
        std::size_t boundary = 0;
        for (int k = 0; k < dests.count(); ++k) {
            while (boundary < best_bounds.size() &&
                   k >= best_bounds[boundary]) {
                ++mode;
                ++boundary;
            }
            modes(s, dests.order[k]) = mode;
        }
    }
    return GlobalPowerTopology::fromModeMatrix(modes, config.numModes);
}

} // namespace mnoc::core
