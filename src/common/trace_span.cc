#include "common/trace_span.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <tuple>

#include "common/io.hh"
#include "common/json.hh"
#include "common/knobs.hh"
#include "common/log.hh"

namespace mnoc {

namespace {

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag(
        readKnob("MNOC_TRACE_SPANS").enabled);
    return flag;
}

std::uint64_t
steadyNowUs()
{
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(now);
    return static_cast<std::uint64_t>(us.count());
}

void
exportGlobalAtExit()
{
    SpanRecorder::global().writeJson(SpanRecorder::exportPath());
}

/** Per-thread event buffer and id, registered lazily with the
 *  recorder (one mutex acquisition per thread, not per span). */
thread_local std::vector<SpanEvent> *tl_buffer = nullptr;
thread_local int tl_tid = 0;

} // namespace

bool
spansEnabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

SpanRecorder::SpanRecorder() : epochUs_(steadyNowUs()) {}

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder *instance = [] {
        auto *recorder = new SpanRecorder();
        if (!exportPath().empty())
            std::atexit(exportGlobalAtExit);
        return recorder;
    }();
    return *instance;
}

void
SpanRecorder::setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

std::string
SpanRecorder::exportPath()
{
    KnobValue knob = readKnob("MNOC_TRACE_SPANS");
    if (!knob.enabled)
        return "";
    return knob.text.empty() ? "mnoc_spans.json" : knob.text;
}

std::uint64_t
SpanRecorder::nowUs() const
{
    return steadyNowUs() - epochUs_;
}

std::vector<SpanEvent> &
SpanRecorder::threadBuffer()
{
    if (tl_buffer == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<std::vector<SpanEvent>>());
        tl_tid = static_cast<int>(buffers_.size());
        tl_buffer = buffers_.back().get();
    }
    return *tl_buffer;
}

void
SpanRecorder::record(SpanEvent event)
{
    std::vector<SpanEvent> &buffer = threadBuffer();
    event.tid = tl_tid;
    buffer.push_back(std::move(event));
}

std::vector<SpanEvent>
SpanRecorder::events() const
{
    std::vector<SpanEvent> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_)
            out.insert(out.end(), buffer->begin(), buffer->end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SpanEvent &a, const SpanEvent &b) {
                         return std::tie(a.startUs, a.tid, a.name) <
                                std::tie(b.startUs, b.tid, b.name);
                     });
    return out;
}

std::string
SpanRecorder::toJson() const
{
    std::string out = "{\n  \"traceEvents\": [";
    const char *sep = "";
    for (const SpanEvent &event : events()) {
        out += sep;
        out += "\n    {\"name\": \"" + escapeJson(event.name) +
               "\", \"cat\": \"" + escapeJson(event.category) +
               "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " +
               std::to_string(event.tid) +
               ", \"ts\": " + std::to_string(event.startUs) +
               ", \"dur\": " + std::to_string(event.durationUs) + "}";
        sep = ",";
    }
    if (*sep != '\0')
        out += "\n  ";
    out += "],\n  \"displayTimeUnit\": \"ms\"\n}\n";
    return out;
}

void
SpanRecorder::writeJson(const std::string &path) const
{
    FileWriter writer(path);
    writer.stream() << toJson();
    writer.close();
}

namespace {

/** Locate the value after `"key":` inside one event object; returns
 *  npos when the key is absent. */
std::size_t
valuePos(const std::string &obj, const std::string &key)
{
    std::size_t at = obj.find("\"" + key + "\"");
    if (at == std::string::npos)
        return at;
    at = obj.find(':', at + key.size() + 2);
    if (at == std::string::npos)
        return at;
    ++at;
    while (at < obj.size() &&
           (obj[at] == ' ' || obj[at] == '\t' || obj[at] == '\n'))
        ++at;
    return at;
}

/** Extract a string field, undoing the common JSON escapes. */
std::string
extractString(const std::string &obj, const std::string &key)
{
    std::size_t at = valuePos(obj, key);
    if (at == std::string::npos || at >= obj.size() ||
        obj[at] != '"')
        return "";
    std::string out;
    for (std::size_t i = at + 1; i < obj.size(); ++i) {
        char c = obj[i];
        if (c == '"')
            break;
        if (c == '\\' && i + 1 < obj.size()) {
            char next = obj[++i];
            switch (next) {
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              default: out += next; break;
            }
            continue;
        }
        out += c;
    }
    return out;
}

/** Extract a non-negative integer field; @p found reports whether
 *  the key was present with a numeric value. */
std::uint64_t
extractUint(const std::string &obj, const std::string &key,
            bool &found)
{
    found = false;
    std::size_t at = valuePos(obj, key);
    if (at == std::string::npos)
        return 0;
    std::uint64_t out = 0;
    bool any = false;
    for (std::size_t i = at; i < obj.size(); ++i) {
        char c = obj[i];
        if (c < '0' || c > '9') {
            if (c == '.') // fractional microseconds: truncate
                break;
            if (!any)
                return 0;
            break;
        }
        out = out * 10 + static_cast<std::uint64_t>(c - '0');
        any = true;
    }
    found = any;
    return out;
}

} // namespace

std::vector<SpanEvent>
parseSpanJson(const std::string &text, const std::string &path)
{
    const std::string where = path.empty() ? "span input" : path;

    // Walk the document, collecting the depth-2 objects (the events
    // inside the traceEvents array) while respecting strings so a
    // brace inside a span name cannot derail the scan.  Top-level
    // keys are tracked so an unknown trailer section from a newer
    // writer is named with its byte offset rather than silently
    // consumed (or worse, its nested objects mistaken for events).
    std::vector<SpanEvent> out;
    int depth = 0;
    bool rooted = false;
    bool has_events = false;
    bool in_events = false;
    bool in_string = false;
    bool escaped = false;
    std::size_t start = 0;
    std::size_t string_start = 0;
    int string_depth = 0;
    std::string section;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"') {
                in_string = false;
                if (string_depth == 1) {
                    // A root-level string followed by ':' names a
                    // section of the document.
                    std::size_t after = i + 1;
                    while (after < text.size() &&
                           (text[after] == ' ' ||
                            text[after] == '\n' ||
                            text[after] == '\t' ||
                            text[after] == '\r'))
                        ++after;
                    if (after < text.size() && text[after] == ':') {
                        section = text.substr(
                            string_start + 1, i - string_start - 1);
                        has_events |= section == "traceEvents";
                        if (section != "traceEvents" &&
                            section != "displayTimeUnit")
                            fatal(where + ": unknown span-file "
                                          "section \"" +
                                  section + "\" at byte " +
                                  std::to_string(string_start));
                    }
                }
            }
            continue;
        }
        // Nothing but whitespace may follow the root object.
        if (rooted && depth == 0 && c != ' ' && c != '\n' &&
            c != '\t' && c != '\r')
            fatal(where + ": unexpected byte after the root object "
                          "at byte " +
                  std::to_string(i));
        if (c == '"') {
            in_string = true;
            string_start = i;
            string_depth = depth;
        } else if (c == '[' || c == ']') {
            if (depth == 1 && section == "traceEvents")
                in_events = c == '[';
        } else if (c == '{') {
            rooted = true;
            if (++depth == 2)
                start = i;
        } else if (c == '}') {
            if (depth-- != 2 || section != "traceEvents")
                continue;
            std::string obj = text.substr(start, i - start + 1);
            std::string ph = extractString(obj, "ph");
            if (!ph.empty() && ph != "X")
                continue; // only complete events carry a duration
            bool has_ts = false, has_dur = false, has_tid = false;
            SpanEvent event;
            event.startUs = extractUint(obj, "ts", has_ts);
            event.durationUs = extractUint(obj, "dur", has_dur);
            event.tid = static_cast<int>(
                extractUint(obj, "tid", has_tid));
            if (!has_ts || !has_dur)
                continue;
            event.name = extractString(obj, "name");
            event.category = extractString(obj, "cat");
            if (event.name.empty())
                continue;
            out.push_back(std::move(event));
        }
    }

    // A document cut short -- a crashed writer, a partial copy --
    // must not pass for a smaller profile.
    const char *cut = in_string ? "inside a string"
                      : in_events
                          ? "with the traceEvents array still open"
                      : depth > 0 ? "with the root object still open"
                      : !rooted   ? "before its root object"
                                  : nullptr;
    if (cut != nullptr)
        fatal(where + ": span file ends at byte " +
              std::to_string(text.size()) + " " + cut);
    if (!has_events)
        fatal(where + ": span file has no traceEvents array");
    return out;
}

std::vector<ProfileRow>
profileSpans(std::vector<SpanEvent> events)
{
    // Parents first at equal start times: a longer span at the same
    // timestamp encloses the shorter one (RAII nesting).
    std::stable_sort(
        events.begin(), events.end(),
        [](const SpanEvent &a, const SpanEvent &b) {
            return std::tie(a.tid, a.startUs) <
                       std::tie(b.tid, b.startUs) ||
                   (a.tid == b.tid && a.startUs == b.startUs &&
                    a.durationUs > b.durationUs);
        });

    // Exclusive time: walk each thread's spans with an open-span
    // stack, charging every span's duration against its innermost
    // enclosing parent.
    std::vector<std::int64_t> exclusive(events.size());
    struct Open
    {
        std::uint64_t end;
        std::size_t idx;
    };
    std::vector<Open> stack;
    int current_tid = 0;
    bool first = true;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const SpanEvent &event = events[i];
        exclusive[i] = static_cast<std::int64_t>(event.durationUs);
        if (first || event.tid != current_tid) {
            stack.clear();
            current_tid = event.tid;
            first = false;
        }
        while (!stack.empty() &&
               stack.back().end <= event.startUs)
            stack.pop_back();
        if (!stack.empty())
            exclusive[stack.back().idx] -=
                static_cast<std::int64_t>(event.durationUs);
        stack.push_back(
            Open{event.startUs + event.durationUs, i});
    }

    std::map<std::string, ProfileRow> rows;
    for (std::size_t i = 0; i < events.size(); ++i) {
        ProfileRow &row = rows[events[i].name];
        row.name = events[i].name;
        row.calls += 1;
        row.inclusiveUs += events[i].durationUs;
        // Clamp: overlapping (non-nested) spans in a foreign trace
        // could otherwise drive the subtraction negative.
        row.exclusiveUs += static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, exclusive[i]));
    }

    std::vector<ProfileRow> out;
    out.reserve(rows.size());
    for (auto &[name, row] : rows)
        out.push_back(std::move(row));
    std::stable_sort(out.begin(), out.end(),
                     [](const ProfileRow &a, const ProfileRow &b) {
                         if (a.inclusiveUs != b.inclusiveUs)
                             return a.inclusiveUs > b.inclusiveUs;
                         return a.name < b.name;
                     });
    return out;
}

void
SpanRecorder::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &buffer : buffers_)
        buffer->clear();
}

TraceSpan::TraceSpan(std::string name, std::string category)
{
    if (!spansEnabled())
        return;
    name_ = std::move(name);
    category_ = std::move(category);
    startUs_ = SpanRecorder::global().nowUs();
    active_ = true;
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    SpanRecorder &recorder = SpanRecorder::global();
    SpanEvent event;
    event.name = std::move(name_);
    event.category = std::move(category_);
    event.startUs = startUs_;
    event.durationUs = recorder.nowUs() - startUs_;
    recorder.record(std::move(event));
}

} // namespace mnoc
