/**
 * @file
 * Scoped span timers exporting Chrome trace-event JSON: wrap a hot
 * region in a TraceSpan and load the emitted file in chrome://tracing
 * (or any Perfetto-compatible viewer) to see where wall-clock time
 * goes across the simulator, the QAP solvers, the yield analyzer,
 * and the bench harness.
 *
 * Spans record *timings*, which are never bit-stable run to run, so
 * they are observability only -- nothing in the library may read
 * them back.  The deterministic counterpart is the metrics registry
 * (common/metrics.hh); DESIGN.md §10 draws the line between the two.
 *
 * Enablement: the MNOC_TRACE_SPANS knob, through a CollectorSwitch
 * (common/knobs.hh).  Unset, empty, or "0" disables recording
 * (constructing a TraceSpan is one predictable branch); "1" records
 * and writes "mnoc_spans.json" in the working directory at process
 * exit; any other value records and writes to that path instead.
 *
 * Thread model: spans append to one mutex-guarded buffer.  The
 * library's spans are recorded from serial code; only the bench
 * harness records from pool tasks, one span per task, so the lock is
 * never hot.  A thread's tid is assigned on its first record, 1, 2,
 * ... in first-record order, and kept for the life of the process;
 * the export time-sorts the buffer.
 */

#ifndef MNOC_COMMON_TRACE_SPAN_HH
#define MNOC_COMMON_TRACE_SPAN_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mnoc {

/** True when span recording is on: MNOC_TRACE_SPANS, overridable
 *  (tests, perfbench). */
bool spansEnabled();

/** One completed span (a Chrome "complete" event, ph = "X"). */
struct SpanEvent
{
    std::string name;
    std::string category;
    /** Microseconds since the recorder was created. */
    std::uint64_t startUs = 0;
    std::uint64_t durationUs = 0;
    /** Small stable id of the recording thread (first-record
     *  order, from 1). */
    int tid = 0;
};

/** Collects SpanEvents from all threads and serializes them. */
class SpanRecorder
{
  public:
    /** The process-wide recorder (never destroyed; an enabled
     *  MNOC_TRACE_SPANS arms an at-exit export on first use). */
    static SpanRecorder &global();

    /** Force recording on/off, overriding MNOC_TRACE_SPANS. */
    static void setEnabled(bool on);

    /** Export path implied by MNOC_TRACE_SPANS ("" when none;
     *  "mnoc_spans.json" for the value "1"). */
    static std::string exportPath();

    /** Microseconds since the recorder was created. */
    std::uint64_t nowUs() const;

    /** Append a completed span, stamped with the calling thread's
     *  tid. */
    void record(SpanEvent event);

    /** All recorded events sorted by (start, tid, name). */
    std::vector<SpanEvent> events() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}); loadable
     *  in chrome://tracing even when no spans were recorded. */
    std::string toJson() const;

    /** Write toJson() to @p path, failing loudly on I/O errors. */
    void writeJson(const std::string &path) const;

    /** Drop every recorded event (tests, perfbench); threads keep
     *  their tids. */
    void reset();

  private:
    SpanRecorder();

    std::uint64_t epochUs_ = 0;
    mutable std::mutex mutex_;
    std::vector<SpanEvent> events_;
    /** Threads that have recorded, so the last tid handed out. */
    int threads_ = 0;
};

/**
 * Parse Chrome trace-event JSON back into SpanEvents (`mnocpt
 * profile` reads files written by SpanRecorder::writeJson or any
 * other ph="X" producer).  The text is read by parseJson()
 * (common/json.hh), so it must be one RFC 8259 document; the span
 * grammar on top of it is:
 *
 *   - the root is an object whose keys are "traceEvents" (an array
 *     of objects) and "displayTimeUnit" (any value); "traceEvents"
 *     is required, and any other key -- a trailer from a newer
 *     writer -- is an error naming the key and its byte offset;
 *   - an event whose "ph" is absent or "X" is a span: its "name",
 *     "cat" and "ph" must be strings when present, and its "ts",
 *     "dur" and "tid" non-negative numbers ("tid" at most INT_MAX),
 *     any fraction truncated; other members ("args", "pid", ...)
 *     are ignored;
 *   - an event with another "ph" (counter and instant overlays such
 *     as the `mnocpt explain` output), or with no name, "ts" or
 *     "dur", is skipped.
 *
 * @param path File name used in diagnostics ("span input" when
 *        empty).
 * @throws FatalError naming the path and a byte offset on malformed
 *         JSON (a cut file, bytes after the root object, ...), an
 *         unknown root section, a value of the wrong type, or a
 *         negative or out-of-range number; naming the path on a
 *         document without a traceEvents array.
 */
std::vector<SpanEvent> parseSpanJson(const std::string &text,
                                     const std::string &path = "");

/** One aggregated hotspot of a span profile. */
struct ProfileRow
{
    std::string name;
    /** Number of spans bearing the name. */
    std::uint64_t calls = 0;
    /** Total wall time inside the span, children included. */
    std::uint64_t inclusiveUs = 0;
    /** Wall time not covered by nested spans on the same thread. */
    std::uint64_t exclusiveUs = 0;
};

/**
 * Aggregate raw span events into per-name hotspot rows, sorted by
 * inclusive wall time (descending; ties by name).  Exclusive time
 * subtracts each span's same-thread nested children, so the column
 * sums to thread wall time without double counting.
 */
std::vector<ProfileRow> profileSpans(std::vector<SpanEvent> events);

/**
 * RAII span: times its own lifetime and records it into the global
 * SpanRecorder on destruction.  Constructing one while spans are
 * disabled costs a single branch and records nothing.
 */
class TraceSpan
{
  public:
    TraceSpan(std::string name, std::string category);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    std::string name_;
    std::string category_;
    std::uint64_t startUs_ = 0;
    bool active_ = false;
};

} // namespace mnoc

#endif // MNOC_COMMON_TRACE_SPAN_HH
