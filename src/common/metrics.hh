/**
 * @file
 * Deterministic, thread-pool-aware metrics registry: named counters,
 * gauges, and fixed-bucket histograms that parallel code can update
 * from inside ThreadPool tasks without breaking the bit-identity
 * contract of DESIGN.md §9.
 *
 * Determinism rule (DESIGN.md §10): everything recorded from a
 * parallel region must be order-independent.  Counters and histogram
 * bucket tallies are unsigned integers combined by addition; the
 * histogram min/max fold is commutative; nothing else (no
 * floating-point sums, no "last writer wins" fields) may be touched
 * concurrently.  Each counter is sharded into cache-line-padded
 * per-worker slots and merged in slot order on read, so the exported
 * registry is bit-identical at any thread count.
 *
 * Enablement: the MNOC_METRICS environment variable.  Unset, empty,
 * or "0" disables recording (add()/observe()/set() reduce to one
 * predictable branch -- see bench/micro_kernels.cc); "1" enables
 * collection; any other value enables collection *and* writes the
 * registry JSON to that path at process exit.
 */

#ifndef MNOC_COMMON_METRICS_HH
#define MNOC_COMMON_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace mnoc {

/** Shard count for striped tallies; power of two, sized so a full
 *  pool of workers rarely collides on one cache line. */
constexpr int kMetricShards = 16;

/** Stable small slot index for the calling thread, used to pick a
 *  metric shard (assigned on first use, in registration order). */
int metricShardSlot();

/** True when the registry records; cached from MNOC_METRICS and
 *  overridable (tests, `mnocpt stats`). */
bool metricsEnabled();

/** Monotonically increasing unsigned tally, safe to bump from
 *  concurrent pool tasks (sharded; merged in slot order). */
class Counter
{
  public:
    /** Add @p n; no-op while metrics are disabled. */
    void
    add(std::uint64_t n = 1)
    {
        if (!metricsEnabled())
            return;
        auto slot = static_cast<std::size_t>(metricShardSlot());
        shards_[slot].count.fetch_add(n, std::memory_order_relaxed);
    }

    /** Slot-order sum of the shards (deterministic: integer adds
     *  commute, so any interleaving yields the same total). */
    std::uint64_t value() const;

  private:
    friend class MetricsRegistry;
    explicit Counter(std::string name) : name_(std::move(name)) {}
    void reset();

    struct Shard
    {
        alignas(64) std::atomic<std::uint64_t> count{0};
    };

    std::string name_;
    std::array<Shard, kMetricShards> shards_;
};

/** Last-writer-wins signed value; only meaningful when set from
 *  serial sections (a concurrent set would be order-dependent). */
class Gauge
{
  public:
    void
    set(std::int64_t value)
    {
        if (!metricsEnabled())
            return;
        value_.store(value, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    explicit Gauge(std::string name) : name_(std::move(name)) {}
    void reset() { value_.store(0, std::memory_order_relaxed); }

    std::string name_;
    std::atomic<std::int64_t> value_{0};
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
 * slot per epoch) that grows on demand.  Each shard owns a
 * mutex-guarded vector; add() locks only the caller's shard, and
 * values() merges shards by slot-wise addition.  Integer adds
 * commute, so the merged series is bit-identical at any thread
 * count, preserving the DESIGN.md §9 contract for per-epoch data.
 */
class Series
{
  public:
    /** Accrue @p n into slot @p index; no-op while metrics are
     *  disabled.  @p index is capped (fatal) to keep a corrupt epoch
     *  id from allocating unbounded memory. */
    void add(std::size_t index, std::uint64_t n = 1);

    /** Slot-wise sum across shards, sized to the largest index
     *  touched (deterministic: integer adds commute). */
    std::vector<std::uint64_t> values() const;

  private:
    friend class MetricsRegistry;
    explicit Series(std::string name) : name_(std::move(name)) {}
    void reset();

    struct Shard
    {
        mutable std::mutex mutex;
        std::vector<std::uint64_t> slots;
    };

    std::string name_;
    std::array<Shard, kMetricShards> shards_;
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
     *  path registers an at-exit JSON export on first use). */
    static MetricsRegistry &global();

    /** Force recording on/off, overriding MNOC_METRICS. */
    static void setEnabled(bool on);

    /** The export path from MNOC_METRICS ("" when none). */
    static std::string exportPath();

    /** Find-or-create the named counter. */
    Counter &counter(const std::string &name);

    /** Find-or-create the named gauge. */
    Gauge &gauge(const std::string &name);

    /**
     * Find-or-create the named histogram.  @p edges (ascending upper
     * bucket bounds) applies on first registration; later calls must
     * pass the same edge count.
     */
    Histogram &histogram(const std::string &name,
                         const std::vector<double> &edges);

    /** Find-or-create the named time-series. */
    Series &series(const std::string &name);

    /** Deterministic JSON export (schema "mnoc-metrics-v2"):
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
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::unique_ptr<Series>> series_;
};

} // namespace mnoc

#endif // MNOC_COMMON_METRICS_HH
