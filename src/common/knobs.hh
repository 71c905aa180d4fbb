/**
 * @file
 * The knob registry: one table row per MNOC_* environment variable
 * and the one strict reader every environment read goes through.
 *
 * A knob's class decides provenance: currentManifest() stamps the
 * result-class knobs that are set, and never the execution or
 * observability ones, so artifact bytes do not depend on them.
 *
 * readKnob() parses on every call, so a re-read after setenv() sees
 * the new value; the runtime knobs' accessors below (ledgerEnabled()
 * and its siblings) read once and cache the result for hot paths, and
 * so does CollectorSwitch, the one on/off switch and at-exit export
 * of the three observability collectors.
 * A malformed value is a fatal error naming the knob and the value:
 * a mistyped knob must stop the run, not quietly reconfigure it.
 */

#ifndef MNOC_COMMON_KNOBS_HH
#define MNOC_COMMON_KNOBS_HH

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

namespace mnoc {

/** How a knob's value is parsed.  Null or empty text is always
 *  "unset" and yields the default. */
enum class KnobKind
{
    Bool,          ///< "0" off, "1" on
    PathFlag,      ///< "0" off, "1" on, other text: on, export path
    PositiveCount, ///< decimal integer in [1, 2^63 - 1]
    ThreadCount,   ///< decimal integer in [1, 4096]
    LogLevel,      ///< quiet | warn | info
    BenchInt,      ///< decimal integer that fits an int
    Directory,     ///< any path
};

/** What a knob may change. */
enum class KnobClass
{
    Result,        ///< artifact contents: stamped into manifests
    Execution,     ///< how a run executes (pool size, output dir)
    Observability, ///< what a run reports about itself
};

/** One row of the knob table. */
struct KnobSpec
{
    const char *name;
    /** The default as README documents it; parsed for the counted
     *  kinds, LogLevel and Directory. */
    const char *fallback;
    KnobKind kind;
    KnobClass klass;
    const char *doc;
};

/** The knob table, one row per MNOC_* variable, in stamping order. */
std::span<const KnobSpec> knobTable();

/** A parsed knob value, with the default applied. */
struct KnobValue
{
    std::string raw;      ///< the value verbatim ("" when unset)
    bool enabled = false; ///< Bool, PathFlag: on
    /** The counted kinds and LogLevel (its enum value); an unset
     *  ThreadCount reads 0 and ThreadPool applies the hardware
     *  default. */
    long long number = 0;
    std::string text; ///< PathFlag export path ("" for "1"); Directory

    /** The variable holds a non-empty value. */
    bool set() const { return !raw.empty(); }
};

/** Strictly parse @p text (null when unset) as knob @p name; panics
 *  on a name that is not in the table. */
KnobValue parseKnob(const char *name, const char *text);

/** parseKnob() on the environment's value of @p name.  The first
 *  call also warns about every set MNOC_* variable that is not in
 *  the table, so a mistyped name does not silently leave a feature
 *  off. */
KnobValue readKnob(const char *name);

/**
 * The switch of one observability collector -- the metrics registry,
 * the span recorder or the decision journal -- read from its PathFlag
 * knob: unset, empty or "0" leaves the collector off; "1" turns it on
 * and exports to the collector's default file, if it has one; any
 * other value turns it on and exports to that path.
 *
 * Each collector holds one as a constinit global, so enabled() is
 * safe from any thread and any static initializer: the first call
 * reads the knob, unless setEnabled() came first, and every later
 * call is one relaxed atomic load.
 */
class CollectorSwitch
{
  public:
    /** @p knob names a PathFlag row of the knob table; @p default_file
     *  is where the value "1" exports (nullptr: "1" collects without
     *  exporting). */
    constexpr CollectorSwitch(const char *knob, const char *default_file)
        : knob_(knob), defaultFile_(default_file)
    {}

    CollectorSwitch(const CollectorSwitch &) = delete;
    CollectorSwitch &operator=(const CollectorSwitch &) = delete;

    /** True while the collector records. */
    bool
    enabled() const
    {
        int state = state_.load(std::memory_order_relaxed);
        if (state == kUnread) [[unlikely]]
            state = readKnobState();
        return state == kOn;
    }

    /** Force recording on or off, overriding the knob. */
    void setEnabled(bool on);

    /** The export path the knob names ("" when it names none);
     *  re-reads the knob. */
    std::string exportPath() const;

    /** When exportPath() is non-empty, run @p write at process exit;
     *  @p write exports the collector to exportPath().  A collector
     *  arms this once, when its never-destroyed global instance is
     *  created. */
    void exportAtExit(void (*write)()) const;

  private:
    static constexpr int kUnread = 0;
    static constexpr int kOff = 1;
    static constexpr int kOn = 2;

    /** Settle the state from the knob unless setEnabled() got there
     *  first; returns the settled state. */
    int readKnobState() const;

    const char *knob_;
    const char *defaultFile_;
    mutable std::atomic<int> state_{kUnread};
};

/** True when the energy-attribution ledger should be collected
 *  (MNOC_LEDGER; overridable in tests). */
bool ledgerEnabled();

/** Force ledger collection on/off, overriding MNOC_LEDGER. */
void setLedgerEnabled(bool on);

/** Messages per attribution epoch (MNOC_EPOCH_MSGS, default 1024). */
std::uint64_t ledgerEpochMessages();

/** True when the runtime fault-injection engine should run
 *  (MNOC_FAULTS). */
bool faultsEnabled();

/** Seed of the runtime fault timeline (MNOC_FAULT_SEED, default
 *  1). */
std::uint64_t faultSeed();

/** True when the traffic-adaptive controller should fold its
 *  static-vs-adaptive comparison into `mnocpt report`
 *  (MNOC_ADAPT). */
bool adaptEnabled();

/** Trailing traffic window of the adaptive controller, in epochs
 *  (MNOC_ADAPT_WINDOW, default 32). */
std::uint64_t adaptWindow();

} // namespace mnoc

#endif // MNOC_COMMON_KNOBS_HH
