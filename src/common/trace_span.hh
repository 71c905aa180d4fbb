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
 * Enablement: the MNOC_TRACE_SPANS environment variable.  Unset,
 * empty, or "0" disables recording (constructing a TraceSpan is one
 * predictable branch); "1" records and writes "mnoc_spans.json" in
 * the working directory at process exit; any other value records and
 * writes to that path instead.
 *
 * Thread model: spans append to per-thread buffers registered under
 * a mutex on first use, so recording from ThreadPool workers never
 * contends; the export merges and time-sorts all buffers.
 */

#ifndef MNOC_COMMON_TRACE_SPAN_HH
#define MNOC_COMMON_TRACE_SPAN_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mnoc {

/** True when span recording is on; cached from MNOC_TRACE_SPANS and
 *  overridable (tests). */
bool spansEnabled();

/** One completed span (a Chrome "complete" event, ph = "X"). */
struct SpanEvent
{
    std::string name;
    std::string category;
    /** Microseconds since the recorder was created. */
    std::uint64_t startUs = 0;
    std::uint64_t durationUs = 0;
    /** Small stable id of the recording thread (registration
     *  order). */
    int tid = 0;
};

/** Collects SpanEvents from all threads and serializes them. */
class SpanRecorder
{
  public:
    /** The process-wide recorder (never destroyed; an
     *  MNOC_TRACE_SPANS path registers an at-exit export on first
     *  use). */
    static SpanRecorder &global();

    /** Force recording on/off, overriding MNOC_TRACE_SPANS. */
    static void setEnabled(bool on);

    /** Export path implied by MNOC_TRACE_SPANS ("" when none;
     *  "mnoc_spans.json" for the value "1"). */
    static std::string exportPath();

    /** Microseconds since the recorder was created. */
    std::uint64_t nowUs() const;

    /** Append a completed span to the calling thread's buffer. */
    void record(SpanEvent event);

    /** All recorded events merged across threads and sorted by
     *  (start, tid, name). */
    std::vector<SpanEvent> events() const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}); loadable
     *  in chrome://tracing even when no spans were recorded. */
    std::string toJson() const;

    /** Write toJson() to @p path, failing loudly on I/O errors. */
    void writeJson(const std::string &path) const;

    /** Drop every recorded event (tests). */
    void reset();

  private:
    SpanRecorder();

    std::vector<SpanEvent> &threadBuffer();

    std::uint64_t epochUs_ = 0;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<std::vector<SpanEvent>>> buffers_;
};

/**
 * Parse Chrome trace-event JSON back into SpanEvents (`mnocpt
 * profile` reads files written by SpanRecorder::writeJson or any
 * other ph="X" producer).  A tolerant extractor, not a full JSON
 * parser: it collects the complete-event objects inside the
 * traceEvents array and reads their name/cat/tid/ts/dur fields,
 * skipping events without a duration (counter/instant overlays such
 * as the `mnocpt explain` output compose cleanly).
 *
 * Unknown top-level sections -- trailers from newer writers -- are
 * named, with their byte offset, in the same diagnostic style as the
 * TraceReader, instead of being silently consumed.
 *
 * @param path File name used in diagnostics ("span input" when
 *        empty).
 * @throws FatalError when @p text contains no traceEvents array,
 *         carries an unknown top-level section, or ends early --
 *         inside a string, or with the traceEvents array or the root
 *         object still open -- naming the byte offset where it ends.
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
