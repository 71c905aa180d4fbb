#include "common/trace_span.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <tuple>

#include "common/io.hh"
#include "common/json.hh"
#include "common/knobs.hh"
#include "common/log.hh"

namespace mnoc {

namespace {

constinit CollectorSwitch spans_switch("MNOC_TRACE_SPANS",
                                       "mnoc_spans.json");

std::uint64_t
steadyNowUs()
{
    auto now = std::chrono::steady_clock::now().time_since_epoch();
    auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(now);
    return static_cast<std::uint64_t>(us.count());
}

/** The calling thread's span tid; 0 until its first record. */
thread_local int tl_tid = 0;

} // namespace

bool
spansEnabled()
{
    return spans_switch.enabled();
}

SpanRecorder::SpanRecorder() : epochUs_(steadyNowUs()) {}

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder *instance = [] {
        auto *recorder = new SpanRecorder();
        spans_switch.exportAtExit(
            [] { global().writeJson(exportPath()); });
        return recorder;
    }();
    return *instance;
}

void
SpanRecorder::setEnabled(bool on)
{
    spans_switch.setEnabled(on);
}

std::string
SpanRecorder::exportPath()
{
    return spans_switch.exportPath();
}

std::uint64_t
SpanRecorder::nowUs() const
{
    return steadyNowUs() - epochUs_;
}

void
SpanRecorder::record(SpanEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (tl_tid == 0)
        tl_tid = ++threads_;
    event.tid = tl_tid;
    events_.push_back(std::move(event));
}

std::vector<SpanEvent>
SpanRecorder::events() const
{
    std::vector<SpanEvent> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = events_;
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

/** Typed reads of span-event members: a member present with the
 *  wrong type or out of range is fatal, naming its byte. */
struct SpanFields
{
    const std::string &where;

    [[noreturn]] void
    fail(const char *key, const JsonValue &value,
         const std::string &what) const
    {
        fatal(where + ": span event field \"" + key + "\" at byte " +
              std::to_string(value.offset) + " " + what);
    }

    /** A string field; "" when absent. */
    std::string
    text(const JsonValue &event, const char *key) const
    {
        const JsonValue *value = event.field(key);
        if (value == nullptr)
            return "";
        if (value->kind != JsonValue::Kind::String)
            fail(key, *value, "is not a string");
        return value->text;
    }

    /** A non-negative number field, any fraction truncated; empty
     *  when absent. */
    std::optional<std::uint64_t>
    count(const JsonValue &event, const char *key,
          std::uint64_t max) const
    {
        const JsonValue *value = event.field(key);
        if (value == nullptr)
            return std::nullopt;
        if (value->kind != JsonValue::Kind::Number)
            fail(key, *value, "is not a number");
        if (value->number < 0.0)
            fail(key, *value, "is negative");
        std::optional<std::uint64_t> out = value->truncatedUint();
        if (!out || *out > max)
            fail(key, *value, "is out of range");
        return out;
    }
};

} // namespace

std::vector<SpanEvent>
parseSpanJson(const std::string &text, const std::string &path)
{
    const std::string where = path.empty() ? "span input" : path;
    JsonValue root = parseJson(text, where);
    if (root.kind != JsonValue::Kind::Object)
        fatal(where + ": span file root at byte " +
              std::to_string(root.offset) + " is not an object");

    // Unknown root sections -- trailers from newer writers -- are
    // named with their byte offset rather than silently skipped.
    const SpanFields fields{where};
    std::vector<SpanEvent> out;
    bool has_events = false;
    for (const JsonMember &section : root.members) {
        if (section.key == "displayTimeUnit")
            continue;
        if (section.key != "traceEvents")
            fatal(where + ": unknown span-file section \"" +
                  section.key + "\" at byte " +
                  std::to_string(section.keyOffset));
        if (section.value.kind != JsonValue::Kind::Array)
            fatal(where + ": traceEvents at byte " +
                  std::to_string(section.value.offset) +
                  " is not an array");
        has_events = true;
        for (const JsonValue &event : section.value.items) {
            if (event.kind != JsonValue::Kind::Object)
                fatal(where + ": trace event at byte " +
                      std::to_string(event.offset) +
                      " is not an object");
            // Only complete events carry a duration.
            std::string ph = fields.text(event, "ph");
            if (!ph.empty() && ph != "X")
                continue;
            SpanEvent span;
            span.name = fields.text(event, "name");
            span.category = fields.text(event, "cat");
            auto ts = fields.count(event, "ts", UINT64_MAX);
            auto dur = fields.count(event, "dur", UINT64_MAX);
            auto tid = fields.count(event, "tid", INT_MAX);
            if (span.name.empty() || !ts || !dur)
                continue;
            span.startUs = *ts;
            span.durationUs = *dur;
            span.tid = static_cast<int>(tid.value_or(0));
            out.push_back(std::move(span));
        }
    }
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
    events_.clear();
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
