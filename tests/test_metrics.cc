/**
 * @file
 * Tests of the deterministic metrics registry, the span recorder, and
 * the run-manifest encoding (common/metrics.hh, common/trace_span.hh,
 * common/manifest.hh).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/manifest.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"

namespace {

using namespace mnoc;

/** Enable metrics for one test and restore the off state after. */
class MetricsTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        MetricsRegistry::setEnabled(true);
        MetricsRegistry::global().reset();
    }

    void
    TearDown() override
    {
        MetricsRegistry::global().reset();
        MetricsRegistry::setEnabled(false);
    }
};

TEST_F(MetricsTest, CounterCountsAndResets)
{
    auto &registry = MetricsRegistry::global();
    Counter &counter = registry.counter("test.counter");
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    registry.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST_F(MetricsTest, DisabledCounterRecordsNothing)
{
    auto &registry = MetricsRegistry::global();
    Counter &counter = registry.counter("test.disabled");
    MetricsRegistry::setEnabled(false);
    counter.add(7);
    EXPECT_EQ(counter.value(), 0u);
    MetricsRegistry::setEnabled(true);
    counter.add(7);
    EXPECT_EQ(counter.value(), 7u);
}

TEST_F(MetricsTest, GaugeHoldsLastValue)
{
    Gauge &gauge = MetricsRegistry::global().gauge("test.gauge");
    gauge.set(-3);
    EXPECT_EQ(gauge.value(), -3);
    gauge.set(12);
    EXPECT_EQ(gauge.value(), 12);
}

TEST_F(MetricsTest, HistogramBucketsByUpperBound)
{
    Histogram &hist = MetricsRegistry::global().histogram(
        "test.hist", {1.0, 10.0, 100.0});
    hist.observe(0.5);  // <= 1
    hist.observe(1.0);  // <= 1 (inclusive upper bound)
    hist.observe(5.0);  // <= 10
    hist.observe(50.0); // <= 100
    hist.observe(5000.0); // overflow
    auto counts = hist.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(hist.totalCount(), 5u);
    EXPECT_DOUBLE_EQ(hist.minValue(), 0.5);
    EXPECT_DOUBLE_EQ(hist.maxValue(), 5000.0);
}

TEST_F(MetricsTest, HistogramRejectsUnsortedEdges)
{
    EXPECT_THROW(MetricsRegistry::global().histogram(
                     "test.bad_edges", {5.0, 1.0}),
                 FatalError);
    EXPECT_THROW(MetricsRegistry::global().histogram(
                     "test.dup_edges", {1.0, 1.0}),
                 FatalError);
}

TEST_F(MetricsTest, ParallelCounterSumIsExact)
{
    auto &registry = MetricsRegistry::global();
    Counter &counter = registry.counter("test.parallel");
    constexpr long long kItems = 10000;
    ThreadPool pool(8);
    pool.parallelFor(kItems, [&](long long i) {
        counter.add(static_cast<std::uint64_t>(i % 3 + 1));
    });
    // Sum of (i % 3 + 1) over 0..9999: 3334*1 + 3333*2 + 3333*3.
    EXPECT_EQ(counter.value(), 3334u + 2u * 3333u + 3u * 3333u);
}

TEST_F(MetricsTest, JsonIsBitIdenticalAcrossThreadCounts)
{
    auto &registry = MetricsRegistry::global();
    std::vector<std::string> exports;
    for (int threads : {1, 2, 8}) {
        registry.reset();
        ThreadPool pool(threads);
        Counter &counter = registry.counter("test.identity.count");
        Histogram &hist = registry.histogram(
            "test.identity.hist", {10.0, 100.0, 1000.0});
        pool.parallelFor(5000, [&](long long i) {
            counter.add();
            hist.observe(static_cast<double>(i));
        });
        registry.gauge("test.identity.gauge").set(7);
        exports.push_back(registry.toJson());
    }
    EXPECT_EQ(exports[0], exports[1]);
    EXPECT_EQ(exports[0], exports[2]);
    EXPECT_NE(exports[0].find("\"schema\": \"mnoc-metrics-v2\""),
              std::string::npos);
}

TEST_F(MetricsTest, SeriesAccumulatesPerSlot)
{
    Series &series = MetricsRegistry::global().series("test.series");
    series.add(0, 5);
    series.add(2, 7);
    series.add(0, 1);
    auto values = series.values();
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[0], 6u);
    EXPECT_EQ(values[1], 0u);
    EXPECT_EQ(values[2], 7u);
    MetricsRegistry::global().reset();
    EXPECT_TRUE(series.values().empty());
}

TEST_F(MetricsTest, DisabledSeriesRecordsNothing)
{
    Series &series = MetricsRegistry::global().series("test.s_off");
    MetricsRegistry::setEnabled(false);
    series.add(0, 3);
    EXPECT_TRUE(series.values().empty());
}

TEST_F(MetricsTest, SeriesParallelSumIsExact)
{
    Series &series = MetricsRegistry::global().series("test.s_par");
    constexpr long long kItems = 10000;
    ThreadPool pool(8);
    pool.parallelFor(kItems, [&](long long i) {
        series.add(static_cast<std::size_t>(i % 7), 1);
    });
    auto values = series.values();
    ASSERT_EQ(values.size(), 7u);
    std::uint64_t total = 0;
    for (std::uint64_t v : values)
        total += v;
    EXPECT_EQ(total, static_cast<std::uint64_t>(kItems));
}

TEST_F(MetricsTest, SeriesRejectsAbsurdSlotIndex)
{
    Series &series = MetricsRegistry::global().series("test.s_cap");
    EXPECT_THROW(series.add(std::size_t{1} << 30, 1), FatalError);
}

TEST_F(MetricsTest, SeriesAppearsInJsonExport)
{
    auto &registry = MetricsRegistry::global();
    registry.series("test.s_json").add(1, 4);
    std::string json = registry.toJson();
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"test.s_json\": [0, 4]"),
              std::string::npos);
}

TEST_F(MetricsTest, WriteJsonFailsOnBadPath)
{
    MetricsRegistry::global().counter("test.write").add();
    EXPECT_THROW(MetricsRegistry::global().writeJson(
                     "/nonexistent/dir/metrics.json"),
                 FatalError);
}

TEST(TraceSpanTest, RecordsScopedSpans)
{
    SpanRecorder::setEnabled(true);
    SpanRecorder::global().reset();
    {
        TraceSpan outer("outer", "test");
        TraceSpan inner("inner", "test");
    }
    auto events = SpanRecorder::global().events();
    ASSERT_EQ(events.size(), 2u);
    const SpanEvent *outer = nullptr;
    const SpanEvent *inner = nullptr;
    for (const auto &event : events) {
        if (event.name == "outer")
            outer = &event;
        if (event.name == "inner")
            inner = &event;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // The outer span encloses the inner one.
    EXPECT_LE(outer->startUs, inner->startUs);
    EXPECT_GE(outer->durationUs, inner->durationUs);
    EXPECT_EQ(outer->category, "test");
    std::string json = SpanRecorder::global().toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
    SpanRecorder::global().reset();
    SpanRecorder::setEnabled(false);
}

TEST(TraceSpanTest, DisabledSpansRecordNothing)
{
    SpanRecorder::setEnabled(false);
    SpanRecorder::global().reset();
    {
        TraceSpan span("ignored", "test");
    }
    EXPECT_TRUE(SpanRecorder::global().events().empty());
    // An empty recorder still exports a loadable document.
    std::string json = SpanRecorder::global().toJson();
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
}

TEST(JsonTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(escapeJson("plain"), "plain");
    EXPECT_EQ(escapeJson("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeJson("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeJson("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(escapeJson("\r\b\f"), "\\r\\b\\f");
    EXPECT_EQ(escapeJson(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(escapeJson("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonTest, NumbersRenderDeterministically)
{
    EXPECT_EQ(jsonNumber(0.0), jsonNumber(0.0));
    EXPECT_EQ(jsonNumber(0.1), jsonNumber(0.1));
    EXPECT_NE(jsonNumber(0.1), jsonNumber(0.2));
    // 17 significant digits round-trip any double exactly.
    EXPECT_EQ(std::stod(jsonNumber(1.0 / 3.0)), 1.0 / 3.0);
}

TEST(ManifestTest, ValueEncodingRoundTrips)
{
    for (const std::string &value :
         {std::string(""), std::string("plain"),
          std::string("has space"), std::string("a%b"),
          std::string("tab\there"), std::string("new\nline")}) {
        std::string encoded = encodeManifestValue(value);
        EXPECT_EQ(encoded.find(' '), std::string::npos) << value;
        EXPECT_EQ(encoded.find('\n'), std::string::npos) << value;
        EXPECT_FALSE(encoded.empty());
        EXPECT_EQ(decodeManifestValue(encoded), value);
    }
}

TEST(ManifestTest, LinesRoundTripThroughParse)
{
    RunManifest original;
    original.seed = 12345;
    original.gitSha = "abc1234";
    original.configDigest = "deadbeefdeadbeef";
    original.env.emplace_back("MNOC_THREADS", "8");
    original.env.emplace_back("MNOC_BENCH_DIR", "out dir");

    RunManifest parsed;
    for (const auto &line : manifestLines(original))
        EXPECT_TRUE(parseManifestEntry(line, parsed)) << line;
    EXPECT_EQ(parsed.seed, original.seed);
    EXPECT_EQ(parsed.gitSha, original.gitSha);
    EXPECT_EQ(parsed.configDigest, original.configDigest);
    EXPECT_EQ(parsed.env, original.env);
}

TEST(ManifestTest, ParseRejectsMalformedEntries)
{
    RunManifest manifest;
    EXPECT_FALSE(parseManifestEntry("", manifest));
    EXPECT_FALSE(parseManifestEntry("seed", manifest));
    EXPECT_FALSE(parseManifestEntry("env MNOC_THREADS", manifest));
    EXPECT_FALSE(parseManifestEntry("seed 1 2", manifest));
    EXPECT_FALSE(parseManifestEntry("seed 1x", manifest));
    EXPECT_FALSE(parseManifestEntry("seed -1", manifest));
    // Unknown keys parse (forward compatibility) but change nothing;
    // so does the `threads` entry older builds wrote, whatever its
    // value.
    EXPECT_TRUE(parseManifestEntry("future value", manifest));
    EXPECT_TRUE(parseManifestEntry("threads 4", manifest));
    EXPECT_TRUE(parseManifestEntry("threads -9z", manifest));
    EXPECT_EQ(manifest.seed, 0u);
    EXPECT_EQ(manifestJson(manifest), manifestJson(RunManifest{}));
}

TEST(ManifestTest, DigestIsStable)
{
    // FNV-1a 64 of the empty string is the offset basis.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("mnoc"), fnv1a64("mnoc"));
    EXPECT_NE(fnv1a64("mnoc"), fnv1a64("mnocpt"));
    EXPECT_EQ(hexDigest(0xdeadbeefULL), "00000000deadbeef");
}

TEST(ManifestTest, CurrentManifestRecordsProcessState)
{
    RunManifest manifest = currentManifest(7, "digest");
    EXPECT_EQ(manifest.seed, 7u);
    EXPECT_EQ(manifest.configDigest, "digest");
    EXPECT_FALSE(manifest.gitSha.empty());
}

TEST(ManifestTest, CurrentManifestStampsOnlySetResultKnobs)
{
    // Result knobs are stamped in table order; execution and
    // observability knobs never reach an artifact's bytes.
    setenv("MNOC_ADAPT_WINDOW", "16", 1);
    setenv("MNOC_LEDGER", "1", 1);
    setenv("MNOC_BENCH_DIR", "elsewhere", 1);
    setenv("MNOC_JOURNAL", "0", 1);
    RunManifest manifest = currentManifest();
    unsetenv("MNOC_ADAPT_WINDOW");
    unsetenv("MNOC_LEDGER");
    unsetenv("MNOC_BENCH_DIR");
    unsetenv("MNOC_JOURNAL");
    std::vector<std::pair<std::string, std::string>> expected = {
        {"MNOC_LEDGER", "1"}, {"MNOC_ADAPT_WINDOW", "16"}};
    EXPECT_EQ(manifest.env, expected);
}

TEST(ManifestTest, JsonFormIsEscapedAndComplete)
{
    RunManifest manifest;
    manifest.seed = 3;
    manifest.gitSha = "g\"it";
    manifest.env.emplace_back("MNOC_BENCH_DIR", "a\\b");
    std::string json = manifestJson(manifest);
    EXPECT_NE(json.find("\"seed\": 3"), std::string::npos);
    EXPECT_NE(json.find("g\\\"it"), std::string::npos);
    EXPECT_NE(json.find("a\\\\b"), std::string::npos);
    // The pool size is an execution setting, never stamped.
    EXPECT_EQ(json.find("threads"), std::string::npos);
}

} // namespace
