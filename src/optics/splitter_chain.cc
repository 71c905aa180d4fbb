#include "optics/splitter_chain.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/units.hh"

namespace mnoc::optics {

SplitterChain::SplitterChain(const SerpentineLayout &layout,
                             const DeviceParams &params, int source)
    : layout_(layout), params_(params), source_(source)
{
    params_.validate();
    int n = layout_.numNodes();
    fatalIf(source < 0 || source >= n, "source index out of range");

    // LED output -> coupler -> source directional splitter.
    sourceFeedTransmission_ =
        params_.couplerLoss.toTransmission() *
        params_.splitterInsertion.toTransmission();

    // Loss convention (see header): pass-through light suffers only
    // propagation loss; the splitter insertion loss applies to the
    // diverted branch (weakly coupled taps), and once at the source's
    // own directional splitter.  Charging the insertion loss to every
    // pass-through would accumulate >50 dB across a radix-256
    // serpentine and contradict the paper's scalability analysis.
    LinearFactor tap_t = params_.splitterInsertion.toTransmission();
    tapAtten_.assign(n, LinearFactor(0.0));
    for (int dest = 0; dest < n; ++dest) {
        if (dest == source_)
            continue;
        LinearFactor trans = sourceFeedTransmission_ * tap_t;
        trans *= params_
                     .propagationLoss(
                         layout_.distanceBetween(source_, dest))
                     .toTransmission();
        tapAtten_[dest] = trans.inverse();
    }

    // Per-segment propagation transmissions, hoisted out of the
    // design/evaluate/lossBreakdown walks: each dB->linear conversion
    // is a pow(), and the walks touch every segment once per call, so
    // caching turns the inner loops into pure multiply-adds over a
    // contiguous array.  The cached values are the same doubles the
    // on-the-fly conversion produced.
    segTrans_.reserve(n > 0 ? n - 1 : 0);
    for (int a = 0; a + 1 < n; ++a)
        segTrans_.push_back(
            params_.propagationLoss(layout_.distanceBetween(a, a + 1))
                .toTransmission());
}

LinearFactor
SplitterChain::tapAttenuation(int dest) const
{
    panicIf(dest < 0 || dest >= numNodes(), "destination out of range");
    panicIf(dest == source_, "a source has no tap on its own waveguide");
    return tapAtten_[dest];
}

LinearFactor
SplitterChain::segmentTransmission(int a) const
{
    return segTrans_[static_cast<std::size_t>(a)];
}

ChainDesign
SplitterChain::design(const std::vector<double> &tap_targets) const
{
    int n = numNodes();
    fatalIf(static_cast<int>(tap_targets.size()) != n,
            "targets size must equal node count");
    fatalIf(tap_targets[source_] != 0.0,
            "the source's own target must be zero");
    for (double t : tap_targets)
        fatalIf(t < 0.0, "received-power targets must be non-negative");

    ChainDesign out;
    out.source = source_;
    out.targets = tap_targets;
    out.splitterFraction.assign(n, 0.0);

    const double tap_t =
        params_.splitterInsertion.toTransmission().value();

    // Per-arm backward recurrence.  W_j (power arriving at node j's
    // splitter input) must cover the tap's diversion -- the target
    // inflated by the tap's insertion loss -- plus everything the rest
    // of the arm needs after the next segment's propagation loss:
    //     W_j = t_j / tap_t + W_next / seg(j, next).
    auto solve_arm = [&](int step) -> double {
        int last = step > 0 ? n - 1 : 0;
        int tail = -1; // farthest node on this arm that needs power
        for (int j = last; j != source_; j -= step) {
            if (tap_targets[j] > 0.0) {
                tail = j;
                break;
            }
        }
        if (tail == -1)
            return 0.0;

        double next_need = 0.0; // W of the node one hop farther out
        for (int j = tail; j != source_; j -= step) {
            double diverted = tap_targets[j] / tap_t;
            double arriving = diverted;
            if (next_need > 0.0) {
                int seg_lo = std::min(j, j + step);
                arriving +=
                    next_need / segmentTransmission(seg_lo).value();
            }
            if (arriving > 0.0)
                out.splitterFraction[j] = diverted / arriving;
            next_need = arriving;
        }
        // Undo the segment between the source and the first arm node.
        int seg_lo = std::min(source_, source_ + step);
        return next_need / segmentTransmission(seg_lo).value();
    };

    double left_need = source_ > 0 ? solve_arm(-1) : 0.0;
    double right_need = source_ < n - 1 ? solve_arm(+1) : 0.0;

    double total_arm_power = left_need + right_need;
    out.injectedPower =
        WattPower(total_arm_power) / sourceFeedTransmission_;
    out.splitterFraction[source_] =
        total_arm_power > 0.0 ? left_need / total_arm_power : 0.0;
    return out;
}

std::vector<double>
SplitterChain::evaluate(const ChainDesign &design,
                        WattPower injected_power) const
{
    return evaluate(design, injected_power, {});
}

std::vector<double>
SplitterChain::evaluate(const ChainDesign &design,
                        WattPower injected_power,
                        const std::vector<double> &splitter_scale) const
{
    int n = numNodes();
    panicIf(design.source != source_, "design is for a different source");
    panicIf(static_cast<int>(design.splitterFraction.size()) != n,
            "design size mismatch");
    panicIf(!splitter_scale.empty() &&
                static_cast<int>(splitter_scale.size()) != n,
            "splitter scale size mismatch");

    auto fraction = [&](int j) {
        double s = design.splitterFraction[j];
        if (!splitter_scale.empty()) {
            // Scale the split *ratio* s/(1-s): s' = s*k/(s*k + 1-s).
            // Endpoints are fixed (s=0 stays 0, s=1 stays 1), interior
            // fractions stay interior, and for small s this reduces to
            // plain s*k.
            double k = std::max(0.0, splitter_scale[j]);
            double num = s * k;
            double den = num + (1.0 - s);
            s = den > 0.0 ? num / den : 0.0;
        }
        return s;
    };

    const double tap_t =
        params_.splitterInsertion.toTransmission().value();
    std::vector<double> received(n, 0.0);
    double fed = (injected_power * sourceFeedTransmission_).watts();
    double left_frac = fraction(source_);

    auto walk = [&](double power, int step) {
        for (int j = source_ + step; j >= 0 && j < n; j += step) {
            int seg_lo = std::min(j, j - step);
            power *= segmentTransmission(seg_lo).value();
            double s = fraction(j);
            received[j] = power * s * tap_t;
            power *= (1.0 - s);
            if (power <= 0.0)
                break;
        }
    };

    walk(fed * left_frac, -1);
    walk(fed * (1.0 - left_frac), +1);
    return received;
}

ChainLossBreakdown
SplitterChain::lossBreakdown(const ChainDesign &design,
                             WattPower injected_power) const
{
    int n = numNodes();
    panicIf(design.source != source_,
            "design is for a different source");
    panicIf(static_cast<int>(design.splitterFraction.size()) != n,
            "design size mismatch");

    const double coupler_t = params_.couplerLoss.toTransmission().value();
    const double split_t =
        params_.splitterInsertion.toTransmission().value();
    const double tap_t = split_t;

    ChainLossBreakdown out;
    out.injected = injected_power.watts();
    // LED output -> coupler -> source directional splitter; what the
    // two arms are fed is what survives both.
    out.sourceCoupling = out.injected * (1.0 - coupler_t);
    double after_coupler = out.injected * coupler_t;
    out.sourceSplit = after_coupler * (1.0 - split_t);
    double fed = after_coupler * split_t;
    double left_frac = design.splitterFraction[source_];

    // Mirror of evaluate()'s walk, with each subtraction booked to
    // the bucket that physically absorbs it.
    auto walk = [&](double power, int step) {
        for (int j = source_ + step; j >= 0 && j < n; j += step) {
            int seg_lo = std::min(j, j - step);
            double seg_t = segmentTransmission(seg_lo).value();
            out.waveguide += power * (1.0 - seg_t);
            power *= seg_t;
            double s = design.splitterFraction[j];
            double diverted = power * s;
            out.tapInsertion += diverted * (1.0 - tap_t);
            double at_tap = diverted * tap_t;
            out.receiverCoupling += at_tap * (1.0 - coupler_t);
            out.delivered += at_tap * coupler_t;
            power *= (1.0 - s);
            if (power <= 0.0)
                break;
        }
        out.residual += power;
    };

    walk(fed * left_frac, -1);
    walk(fed * (1.0 - left_frac), +1);

    // Conservation self-check: every injected watt must land in
    // exactly one bucket.  A violation is a modeling bug, not a bad
    // user request.
    double accounted = out.accountedFor();
    double scale = std::max(out.injected, 1e-30);
    if (std::abs(accounted - out.injected) > 1e-9 * scale)
        panic("splitter-chain loss breakdown violates power "
              "conservation for source " + std::to_string(source_));
    return out;
}

} // namespace mnoc::optics
