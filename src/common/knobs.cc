#include "common/knobs.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

extern char **environ;

namespace mnoc {

namespace {

// The single source of the knob names: README's environment-knob
// table and tools/doc_check.py's knob-table rule are checked against
// these rows (name, default, class), and the manifest stamps the
// result-class rows in this order.
constexpr KnobSpec kKnobs[] = {
    {"MNOC_LEDGER", "off", KnobKind::Bool, KnobClass::Result,
     "bucket simulator traffic into ledger epochs"},
    {"MNOC_EPOCH_MSGS", "1024", KnobKind::PositiveCount,
     KnobClass::Result, "messages per ledger epoch"},
    {"MNOC_FAULTS", "off", KnobKind::Bool, KnobClass::Result,
     "run the fault-injection engine inside mnocpt report"},
    {"MNOC_FAULT_SEED", "1", KnobKind::PositiveCount,
     KnobClass::Result, "seed of the runtime fault timeline"},
    {"MNOC_ADAPT", "off", KnobKind::Bool, KnobClass::Result,
     "run the adaptive controller inside mnocpt report"},
    {"MNOC_ADAPT_WINDOW", "32", KnobKind::PositiveCount,
     KnobClass::Result, "trailing epochs of the adaptive controller"},
    {"MNOC_BENCH_CORES", "256", KnobKind::BenchInt, KnobClass::Result,
     "simulated core count of the bench harness"},
    {"MNOC_BENCH_OPS", "4000", KnobKind::BenchInt, KnobClass::Result,
     "operations per thread in the bench SPLASH kernels"},
    {"MNOC_THREADS", "hardware concurrency", KnobKind::ThreadCount,
     KnobClass::Execution, "size of the shared worker pool"},
    {"MNOC_BENCH_DIR", "bench_out", KnobKind::Directory,
     KnobClass::Execution, "output and cache directory of the benches"},
    {"MNOC_METRICS", "off", KnobKind::PathFlag,
     KnobClass::Observability, "collect (and export) run metrics"},
    {"MNOC_TRACE_SPANS", "off", KnobKind::PathFlag,
     KnobClass::Observability, "record wall-clock spans"},
    {"MNOC_JOURNAL", "off", KnobKind::PathFlag,
     KnobClass::Observability, "record the decision journal"},
    {"MNOC_LOG_LEVEL", "info", KnobKind::LogLevel,
     KnobClass::Observability, "verbosity of warn() and inform()"},
};

const KnobSpec &
knobSpec(const char *name)
{
    for (const KnobSpec &spec : kKnobs)
        if (std::strcmp(spec.name, name) == 0)
            return spec;
    panic(std::string("knob ") + name + " is not in the knob table");
}

[[noreturn]] void
badValue(const KnobSpec &spec, const char *expected, const char *text)
{
    fatal(std::string(spec.name) + " must be " + expected + ", got '" +
          text + "'");
}

/** Whole-token decimal integer in [lo, hi], or a fatal. */
long long
parseInteger(const KnobSpec &spec, const char *text, long long lo,
             long long hi, const char *expected)
{
    char *end = nullptr;
    errno = 0;
    long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
        value > hi)
        badValue(spec, expected, text);
    return value;
}

/** Values of a path-or-flag knob that are clearly a mistyped flag
 *  rather than a path: a boolean word in any case, or all digits. */
bool
flagish(const std::string &value)
{
    std::string lowered;
    bool all_digits = true;
    for (char c : value) {
        lowered += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
        all_digits = all_digits && c >= '0' && c <= '9';
    }
    return all_digits || lowered == "true" || lowered == "false" ||
           lowered == "yes" || lowered == "no" || lowered == "on" ||
           lowered == "off";
}

/** Parse the non-empty @p text into @p value. */
void
parseValue(const KnobSpec &spec, const char *text, KnobValue &value)
{
    std::string raw(text);
    switch (spec.kind) {
    case KnobKind::Bool:
        if (raw != "0" && raw != "1")
            badValue(spec, "0 or 1", text);
        value.enabled = raw == "1";
        return;
    case KnobKind::PathFlag:
        value.enabled = raw != "0";
        if (raw == "0" || raw == "1")
            return;
        if (flagish(raw))
            badValue(spec, "0, 1 or an export path", text);
        value.text = raw;
        return;
    case KnobKind::PositiveCount:
        value.number = parseInteger(spec, text, 1, LLONG_MAX,
                                    "a positive integer");
        return;
    case KnobKind::ThreadCount:
        value.number = parseInteger(spec, text, 1, 4096,
                                    "an integer in [1, 4096]");
        return;
    case KnobKind::BenchInt:
        value.number =
            parseInteger(spec, text, INT_MIN, INT_MAX, "an integer");
        return;
    case KnobKind::LogLevel:
        if (raw == "quiet")
            value.number = static_cast<long long>(LogLevel::Quiet);
        else if (raw == "warn")
            value.number = static_cast<long long>(LogLevel::Warn);
        else if (raw == "info")
            value.number = static_cast<long long>(LogLevel::Info);
        else
            badValue(spec, "quiet, warn, or info", text);
        return;
    case KnobKind::Directory:
        value.text = raw;
        return;
    }
}

/** Warn about every set MNOC_* variable the table does not know. */
void
warnUnknownKnobs()
{
    for (char **entry = environ; entry != nullptr && *entry != nullptr;
         ++entry) {
        std::string var(*entry);
        std::string name = var.substr(0, var.find('='));
        if (name.compare(0, 5, "MNOC_") != 0)
            continue;
        bool known = false;
        for (const KnobSpec &spec : kKnobs)
            known = known || name == spec.name;
        if (!known)
            warn("unknown knob " + name +
                 " is ignored (no such MNOC_* variable; see the "
                 "README environment-knob table)");
    }
}

std::atomic<bool> &
ledgerFlag()
{
    static std::atomic<bool> flag(readKnob("MNOC_LEDGER").enabled);
    return flag;
}

} // namespace

std::span<const KnobSpec>
knobTable()
{
    return kKnobs;
}

KnobValue
parseKnob(const char *name, const char *text)
{
    const KnobSpec &spec = knobSpec(name);
    KnobValue value;
    if (text != nullptr && *text != '\0') {
        value.raw = text;
        parseValue(spec, text, value);
        return value;
    }
    // Unset: Bool and PathFlag are off, ThreadCount is left to the
    // pool; every other kind parses its documented default.
    if (spec.kind != KnobKind::Bool && spec.kind != KnobKind::PathFlag &&
        spec.kind != KnobKind::ThreadCount)
        parseValue(spec, spec.fallback, value);
    return value;
}

KnobValue
readKnob(const char *name)
{
    // The log level is read while warn() initialises, so reading it
    // must not itself warn; the scan runs on the first other read.
    static std::atomic<bool> scanned{false};
    if (std::strcmp(name, "MNOC_LOG_LEVEL") != 0 &&
        !scanned.exchange(true, std::memory_order_relaxed))
        warnUnknownKnobs();
    return parseKnob(name, std::getenv(name));
}

int
CollectorSwitch::readKnobState() const
{
    int state = readKnob(knob_).enabled ? kOn : kOff;
    int expected = kUnread;
    // A setEnabled() that ran meanwhile wins over the knob.
    if (!state_.compare_exchange_strong(expected, state,
                                        std::memory_order_relaxed))
        return expected;
    return state;
}

void
CollectorSwitch::setEnabled(bool on)
{
    state_.store(on ? kOn : kOff, std::memory_order_relaxed);
}

std::string
CollectorSwitch::exportPath() const
{
    KnobValue knob = readKnob(knob_);
    if (!knob.enabled)
        return "";
    if (!knob.text.empty())
        return knob.text;
    return defaultFile_ != nullptr ? defaultFile_ : "";
}

void
CollectorSwitch::exportAtExit(void (*write)()) const
{
    if (!exportPath().empty())
        std::atexit(write);
}

bool
ledgerEnabled()
{
    return ledgerFlag().load(std::memory_order_relaxed);
}

void
setLedgerEnabled(bool on)
{
    ledgerFlag().store(on, std::memory_order_relaxed);
}

std::uint64_t
ledgerEpochMessages()
{
    static auto cached = static_cast<std::uint64_t>(
        readKnob("MNOC_EPOCH_MSGS").number);
    return cached;
}

bool
faultsEnabled()
{
    static bool cached = readKnob("MNOC_FAULTS").enabled;
    return cached;
}

std::uint64_t
faultSeed()
{
    static auto cached = static_cast<std::uint64_t>(
        readKnob("MNOC_FAULT_SEED").number);
    return cached;
}

bool
adaptEnabled()
{
    static bool cached = readKnob("MNOC_ADAPT").enabled;
    return cached;
}

std::uint64_t
adaptWindow()
{
    static auto cached = static_cast<std::uint64_t>(
        readKnob("MNOC_ADAPT_WINDOW").number);
    return cached;
}

} // namespace mnoc
