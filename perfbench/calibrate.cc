// Host-speed calibration kernel for perfbench/run.py.
//
// A fixed, deterministic mix of two kinds of work the mnocpt verbs do:
// formatting and parsing numeric text (trace, map and design files) and
// floating-point transcendentals (optical loss in dB).  It uses none of
// the repository's code, so no change to the program moves it.  run.py
// times it next to every verb: on a shared host whose speed drifts by
// tens of percent within a minute, the ratio of a verb's time to the
// kernel's time next to it is far steadier than either alone.
//
// Prints one line, "calibrate <checksum>", which run.py compares with a
// constant.  Usage: perfbench_calibrate

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr int kTextLines = 75000;
constexpr int kMathSteps = 375000;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::uint64_t text(std::uint64_t h) {
    char line[96];
    for (int i = 0; i < kTextLines; ++i) {
        const double power = 1e-3 * (i % 977) + 0.5;
        std::snprintf(line, sizeof line, "%d %d %.9g\n", i % 256,
                      (i * 37) % 256, power);
        char* end = nullptr;
        const long src = std::strtol(line, &end, 10);
        const long dst = std::strtol(end, &end, 10);
        const double back = std::strtod(end, &end);
        h = mix(h, static_cast<std::uint64_t>(src * 256 + dst));
        h = mix(h, static_cast<std::uint64_t>(std::llround(back * 1e9)));
    }
    return h;
}

std::uint64_t math(std::uint64_t h) {
    double acc = 0.0;
    for (int i = 0; i < kMathSteps; ++i) {
        const double linear = std::pow(10.0, -0.01 * (i % 300));
        acc += std::log10(linear + 1e-12) + std::exp(-linear);
    }
    return mix(h, static_cast<std::uint64_t>(std::llround(acc * 1e3)));
}

}  // namespace

int main() {
    std::printf("calibrate %016" PRIx64 "\n", math(text(0)));
    return 0;
}
