/**
 * @file
 * Deterministic metrics registry: named counters, fixed-bucket
 * histograms and per-epoch series that pool tasks may update without
 * breaking the bit-identity contract of DESIGN.md §9.
 *
 * Determinism rule (DESIGN.md §10): everything recorded from a
 * parallel region must be order-independent.  Counters, histogram
 * bucket tallies and series slots are unsigned integers combined by
 * addition, and the histogram min/max fold is commutative, so the
 * exported registry is bit-identical at any thread count; nothing
 * else (no floating-point sums, no "last writer wins" values) is
 * recorded.  The replay path is serial; the concurrent writers are
 * the QAP restarts and the yield draws (counters and the yield
 * histograms), each recording once per pool task, so a counter is
 * one relaxed atomic and a series one mutex-guarded vector.
 *
 * Enablement: the MNOC_METRICS knob, through a CollectorSwitch
 * (common/knobs.hh).  Unset, empty, or "0" disables recording
 * (add()/observe() reduce to one predictable branch -- see
 * bench/micro_kernels.cc); "1" enables collection; any other value
 * enables collection *and* writes the registry JSON to that path at
 * process exit.
 */

#ifndef MNOC_COMMON_METRICS_HH
#define MNOC_COMMON_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace mnoc {

/** True when the registry records: MNOC_METRICS, overridable
 *  (tests, `mnocpt stats`). */
bool metricsEnabled();

/** Monotonically increasing unsigned tally, safe to bump from
 *  concurrent pool tasks (one relaxed atomic: integer adds commute,
 *  so any interleaving yields the same total). */
class Counter
{
  public:
    /** Add @p n; no-op while metrics are disabled. */
    void
    add(std::uint64_t n = 1)
    {
        if (metricsEnabled())
            count_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return count_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    explicit Counter(std::string name) : name_(std::move(name)) {}
    void reset() { count_.store(0, std::memory_order_relaxed); }

    std::string name_;
    std::atomic<std::uint64_t> count_{0};
};

/**
 * Fixed-bucket histogram: bucket edges are ascending upper bounds
 * fixed at registration (observation x lands in the first bucket
 * with x <= edge, else the overflow bucket).  Bucket tallies are
 * integer adds and the min/max fold is commutative, so concurrent
 * observes from pool tasks stay deterministic.
 */
class Histogram
{
  public:
    void observe(double value);

    const std::vector<double> &edges() const { return edges_; }
    /** Per-bucket tallies (edges().size() + 1 entries, overflow
     *  last). */
    std::vector<std::uint64_t> bucketCounts() const;
    std::uint64_t totalCount() const;
    /** Smallest/largest observed value; only valid when
     *  totalCount() > 0. */
    double minValue() const;
    double maxValue() const;

  private:
    friend class MetricsRegistry;
    Histogram(std::string name, std::vector<double> edges);
    void reset();

    std::string name_;
    std::vector<double> edges_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<double> min_;
    std::atomic<double> max_;
};

/**
 * Labeled time-series: an indexed sequence of unsigned tallies (one
 * slot per epoch) that grows on demand, in one mutex-guarded vector.
 * Integer adds commute, so the series is bit-identical at any thread
 * count, preserving the DESIGN.md §9 contract for per-epoch data.
 */
class Series
{
  public:
    /** Accrue @p n into slot @p index; no-op while metrics are
     *  disabled.  @p index is capped (fatal) to keep a corrupt epoch
     *  id from allocating unbounded memory. */
    void add(std::size_t index, std::uint64_t n = 1);

    /** The slots, sized to the largest index touched. */
    std::vector<std::uint64_t> values() const;

  private:
    friend class MetricsRegistry;
    explicit Series(std::string name) : name_(std::move(name)) {}
    void reset();

    std::string name_;
    mutable std::mutex mutex_;
    std::vector<std::uint64_t> slots_;
};

/**
 * Process-wide registry of named metrics.  Registration is
 * mutex-guarded and handles are stable for the registry's lifetime,
 * so call sites fetch a handle once and record lock-free afterwards.
 * Export (toJson/printText) iterates names in sorted order, making
 * the output deterministic.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry (never destroyed; an MNOC_METRICS
     *  path arms an at-exit JSON export on first use). */
    static MetricsRegistry &global();

    /** Force recording on/off, overriding MNOC_METRICS. */
    static void setEnabled(bool on);

    /** The export path from MNOC_METRICS ("" when none). */
    static std::string exportPath();

    /** Find-or-create the named counter. */
    Counter &counter(const std::string &name);

    /**
     * Find-or-create the named histogram.  @p edges (ascending upper
     * bucket bounds) applies on first registration; later calls must
     * pass the same edge count.
     */
    Histogram &histogram(const std::string &name,
                         const std::vector<double> &edges);

    /** Find-or-create the named time-series. */
    Series &series(const std::string &name);

    /** Deterministic JSON export (schema "mnoc-metrics-v3"):
     *  sorted names, 17-digit doubles, integer tallies. */
    std::string toJson() const;

    /** Write toJson() to @p path, failing loudly on I/O errors. */
    void writeJson(const std::string &path) const;

    /** Human-readable dump (one metric per line, sorted). */
    void printText(std::ostream &out) const;

    /** Zero every value, keeping registrations (tests use this to
     *  compare runs of the same workload). */
    void reset();

  private:
    MetricsRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::unique_ptr<Series>> series_;
};

} // namespace mnoc

#endif // MNOC_COMMON_METRICS_HH
