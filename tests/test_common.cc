/**
 * @file
 * Unit tests for the common substrate: units, matrices, stats, CSV,
 * PGM and table output, whole-file reads, and the JSON reader (with
 * the compilation database it reads).  The binary replaces the
 * global operator new with a counting one, so a test can assert that
 * a hot path does not allocate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/csv.hh"
#include "common/io.hh"
#include "common/json.hh"
#include "common/knobs.hh"
#include "common/log.hh"
#include "common/matrix.hh"
#include "common/metrics.hh"
#include "common/pgm.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "core/energy_ledger.hh"
#include "tools/analyze/compile_db.hh"

namespace {

std::atomic<std::size_t> allocations{0};

} // namespace

// The deletes stay out of line: inlined into a caller, GCC would see
// free() on a pointer from operator new and warn of a mismatch.

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace mnoc;

TEST(Units, DbRoundTrips)
{
    EXPECT_DOUBLE_EQ(dbToAttenuation(10.0), 10.0);
    EXPECT_DOUBLE_EQ(dbToAttenuation(0.0), 1.0);
    EXPECT_DOUBLE_EQ(dbToTransmission(10.0), 0.1);
    EXPECT_NEAR(ratioToDb(dbToAttenuation(3.7)), 3.7, 1e-12);
}

TEST(Units, AttenuationTimesTransmissionIsUnity)
{
    for (double db : {0.1, 1.0, 2.5, 18.0, 50.0})
        EXPECT_NEAR(dbToAttenuation(db) * dbToTransmission(db), 1.0,
                    1e-12);
}

TEST(Units, RatioToDbRejectsNonPositive)
{
    EXPECT_THROW(ratioToDb(0.0), PanicError);
    EXPECT_THROW(ratioToDb(-1.0), PanicError);
}

TEST(Units, NearlyEqual)
{
    EXPECT_TRUE(nearlyEqual(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(nearlyEqual(1.0, 1.001));
    EXPECT_TRUE(nearlyEqual(0.0, 0.0));
    EXPECT_TRUE(nearlyEqual(WattPower(1.0), WattPower(1.0 + 1e-12)));
    EXPECT_FALSE(nearlyEqual(WattPower(1.0), WattPower(1.001)));
}

TEST(Units, StrongTypesAreNotImplicitlyConvertible)
{
    // The whole point of the wrappers: a bare double (or the wrong
    // wrapper) cannot sneak into a unit-typed parameter.
    static_assert(!std::is_convertible_v<double, DecibelLoss>);
    static_assert(!std::is_convertible_v<double, LinearFactor>);
    static_assert(!std::is_convertible_v<double, WattPower>);
    static_assert(!std::is_convertible_v<double, Meters>);
    static_assert(!std::is_convertible_v<DecibelLoss, WattPower>);
    static_assert(!std::is_convertible_v<DecibelLoss, LinearFactor>);
    static_assert(!std::is_convertible_v<WattPower, Meters>);
    // Zero overhead: same size and triviality as the raw double.
    static_assert(sizeof(DecibelLoss) == sizeof(double));
    static_assert(sizeof(WattPower) == sizeof(double));
    static_assert(std::is_trivially_copyable_v<WattPower>);
    static_assert(std::is_trivially_copyable_v<Meters>);
}

TEST(Units, DecibelConversionRoundTrips)
{
    for (double db : {-12.0, -0.5, 0.0, 0.1, 3.0, 17.5, 60.0}) {
        DecibelLoss loss(db);
        // toTransmission and toAttenuation are exact inverses.
        EXPECT_NEAR((loss.toTransmission() * loss.toAttenuation())
                        .value(),
                    1.0, 1e-12);
        EXPECT_NEAR(loss.toAttenuation().inverse().value(),
                    loss.toTransmission().value(), 1e-12);
        // Linear -> dB -> linear is the identity.
        EXPECT_NEAR(loss.toAttenuation().toDb().dB(), db, 1e-12);
        EXPECT_NEAR(loss.toTransmission().toDb().dB(), -db, 1e-12);
    }
}

TEST(Units, DbmRoundTrips)
{
    using namespace unit_literals;
    EXPECT_DOUBLE_EQ(WattPower::fromDbm(0.0).watts(), 1e-3);
    EXPECT_DOUBLE_EQ(WattPower::fromDbm(30.0).watts(), 1.0);
    EXPECT_NEAR(WattPower::fromDbm(-30.0).microwatts(), 1.0, 1e-12);
    for (double dbm : {-42.0, -3.0, 0.0, 10.0, 27.5})
        EXPECT_NEAR(WattPower::fromDbm(dbm).toDbm(), dbm, 1e-12);
    EXPECT_NEAR((1_mW).toDbm(), 0.0, 1e-12);
    EXPECT_THROW(WattPower(0.0).toDbm(), PanicError);
}

TEST(Units, ArithmeticPreservesDimensions)
{
    using namespace unit_literals;
    // Powers: add, scale, attenuate; ratios are dimensionless.
    WattPower p = 2_mW + 500_uW;
    EXPECT_DOUBLE_EQ(p.watts(), 2.5e-3);
    EXPECT_DOUBLE_EQ((p * 2.0).watts(), 5e-3);
    EXPECT_DOUBLE_EQ(p / 500_uW, 5.0);
    EXPECT_DOUBLE_EQ((p * DecibelLoss(3.0).toTransmission()).watts(),
                     p.watts() * dbToTransmission(3.0));
    EXPECT_DOUBLE_EQ((p / DecibelLoss(3.0).toAttenuation()).watts(),
                     p.watts() * dbToTransmission(3.0));
    // dB quantities are additive and ordered.
    EXPECT_DOUBLE_EQ((3.5_dB + 1.5_dB).dB(), 5.0);
    EXPECT_DOUBLE_EQ((3.5_dB - 1.5_dB).dB(), 2.0);
    EXPECT_DOUBLE_EQ((-(3_dB)).dB(), -3.0);
    EXPECT_LT(1_dB, 2_dB);
    // Lengths: literals agree, ratios are dimensionless.
    EXPECT_DOUBLE_EQ((18_cm).meters(), (0.18_m).meters());
    EXPECT_DOUBLE_EQ((0.18_m).centimeters(), 18.0);
    EXPECT_DOUBLE_EQ(0.1_m / 0.05_m, 2.0);
    EXPECT_DOUBLE_EQ(mnoc::abs(Meters(-0.3)).meters(), 0.3);
}

TEST(Units, StreamsPrintWithUnitSuffix)
{
    std::ostringstream os;
    os << DecibelLoss(3.0) << "; " << LinearFactor(2.0) << "; "
       << WattPower(0.5) << "; " << Meters(0.18);
    EXPECT_EQ(os.str(), "3 dB; 2x; 0.5 W; 0.18 m");
}

TEST(Log, FatalAndPanicThrowDistinctTypes)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_NO_THROW(fatalIf(false, "fine"));
    EXPECT_THROW(fatalIf(true, "bad"), FatalError);
    EXPECT_NO_THROW(panicIf(false, "fine"));
    EXPECT_THROW(panicIf(true, "bad"), PanicError);
}

TEST(Log, PassingChecksDoNotAllocate)
{
    FlowMatrix m(4, 4, 1.5);
    core::EnergyLedger ledger(2, 3, 4, 1.0);
    ledger.cell(1, 2, 3).sourceEnergy = 2.5;
    // Opaque to the optimizer, so no check folds away.
    volatile bool fail = false;

    // Literals well past the 15-character small-string buffer, which
    // a std::string message would heap-allocate on every call.
    std::size_t before = allocations.load();
    panicIf(fail, "a passing invariant check must not build its message");
    fatalIf(fail, "a passing user check must not build its message");
    double sum = m(3, 2) + ledger.cell(1, 2, 3).sourceEnergy;
    std::size_t after = allocations.load();
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(sum, 4.0);

    // A failing check still throws its exact text.
    try {
        panicIf(!fail, "a failing invariant check throws this text");
        ADD_FAILURE() << "panicIf(true, ...) returned";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(),
                     "panic: a failing invariant check throws this text");
    }
    try {
        fatalIf(!fail, "a failing user check throws this text exactly");
        ADD_FAILURE() << "fatalIf(true, ...) returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "fatal: a failing user check throws this text exactly");
    }
}

TEST(Log, QuietLevelCountsSuppressedWarnings)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    std::uint64_t base = suppressedWarningCount();
    warn("swallowed");
    warn("also swallowed");
    EXPECT_EQ(suppressedWarningCount(), base + 2);
    // At Warn and above, warn() prints and the counter holds still.
    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    warn("printed");
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn: printed"), std::string::npos);
    EXPECT_EQ(suppressedWarningCount(), base + 2);
    setLogLevel(before);
}

TEST(Log, InformRespectsLevelWithoutCounting)
{
    LogLevel before = logLevel();
    std::uint64_t base = suppressedWarningCount();
    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    inform("dropped");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    setLogLevel(LogLevel::Info);
    testing::internal::CaptureStderr();
    inform("printed");
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "info: printed"),
              std::string::npos);
    // Only warn() feeds the suppressed-warnings trail.
    EXPECT_EQ(suppressedWarningCount(), base);
    setLogLevel(before);
}

TEST(Io, FileWriterFatalsOnUnwritablePath)
{
    try {
        FileWriter writer("/nonexistent/dir/out.txt");
        FAIL() << "FileWriter opened an impossible path";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("/nonexistent/dir/out.txt"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Io, FileWriterCloseDetectsFullDisk)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    try {
        FileWriter writer("/dev/full");
        writer.stream() << std::string(1 << 16, 'x');
        writer.close();
        FAIL() << "FileWriter missed the write failure";
    } catch (const FatalError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find("disk full"), std::string::npos) << what;
        EXPECT_NE(what.find("/dev/full"), std::string::npos) << what;
    }
}

TEST(Io, ReadWholeFileNamesThePathOfWhatItCannotLoad)
{
    std::string path = testing::TempDir() + "read_whole_file.bin";
    std::string bytes("a\0b\nc", 5);
    {
        FileWriter writer(path, /*binary=*/true);
        writer.stream() << bytes;
        writer.close();
    }
    EXPECT_EQ(readWholeFile(path, "sample"), bytes);
    std::remove(path.c_str());

    auto expectFatal = [](const std::string &target,
                          const std::string &message) {
        try {
            readWholeFile(target, "sample");
            ADD_FAILURE() << "read " << target;
        } catch (const FatalError &error) {
            EXPECT_EQ(std::string(error.what()), "fatal: " + message + target);
        }
    };
    expectFatal(path, "cannot open sample file: ");
    // A directory opens as an ifstream; it must not read as empty.
    expectFatal(testing::TempDir(),
                "not a regular file, cannot load it as a sample: ");
}

/** The diagnostic parseJson() raises on @p text, or "" when it
 *  parses. */
std::string
jsonError(const std::string &text)
{
    try {
        parseJson(text, "doc.json");
    } catch (const FatalError &error) {
        return error.what();
    }
    return "";
}

TEST(Json, RejectsWhatRfc8259Rejects)
{
    struct Row
    {
        std::string text;
        std::size_t byte;
        const char *what;
    };
    const std::string deep = std::string(kJsonMaxDepth + 1, '[');
    const std::vector<Row> rows = {
        {"+1", 0, "expected a value"},
        {"01", 0, "number with a leading zero"},
        {"[-007]", 2, "number with a leading zero"},
        {"0x10", 1, "unexpected byte after the root value"},
        {"NaN", 0, "expected a value"},
        {"[Infinity]", 1, "expected a value"},
        {"1.", 2, "expected a digit after the decimal point"},
        {".5", 0, "expected a value"},
        {"1e+", 3, "expected a digit in the exponent"},
        {"-", 1, "expected a digit"},
        {"1e999", 0, "number out of the range of a double"},
        {"tru", 0, "expected a value"},
        {"[tttt]", 1, "expected a value"},
        {"nul", 0, "expected a value"},
        {"True", 0, "expected a value"},
        {"\"a\x01" "b\"", 2, "raw control character in a string"},
        {"\"tab\there\"", 4, "raw control character in a string"},
        {"\"\\ud800\"", 1, "lone high surrogate"},
        {"\"\\ud800\\u0041\"", 1, "lone high surrogate"},
        {"\"\\udc00\"", 1, "lone low surrogate"},
        {"\"\\u12g4\"", 3, "expected four hex digits in a \\u escape"},
        {"\"\\x\"", 1, "invalid escape"},
        {"\"\\u12", 5, "unexpected end of input inside a string"},
        {"\"open", 5, "unexpected end of input inside a string"},
        {"[1,]", 3, "expected a value"},
        {"[1 2]", 3, "expected ',' or ']'"},
        {"{\"a\": 1 \"b\": 2}", 8, "expected ',' or '}'"},
        {"{\"a\": 1,}", 8, "expected a member key"},
        {"{\"a\" 1}", 5, "expected ':'"},
        {"{1: 2}", 1, "expected a member key"},
        {"{} x", 3, "unexpected byte after the root value"},
        {"[] []", 3, "unexpected byte after the root value"},
        {"", 0, "unexpected end of input"},
        {"  \n", 3, "unexpected end of input"},
        {"[", 1, "unexpected end of input"},
        {deep, kJsonMaxDepth, "nesting deeper than 256 levels"},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.text.substr(0, 40));
        EXPECT_EQ(jsonError(row.text),
                  "fatal: doc.json: malformed JSON at byte " +
                      std::to_string(row.byte) + ": " + row.what);
    }
}

TEST(Json, DeepNestingIsADiagnosticNotAStackOverflow)
{
    for (const char *open : {"[", "{\"k\": "}) {
        std::string text;
        for (int i = 0; i < 200000; ++i)
            text += open;
        EXPECT_NE(jsonError(text).find("nesting deeper than"),
                  std::string::npos);
    }
    // The cap itself parses.
    std::string at_cap = std::string(kJsonMaxDepth, '[') +
                         std::string(kJsonMaxDepth, ']');
    EXPECT_EQ(jsonError(at_cap), "");
}

TEST(Json, StringsDecodeToUtf8)
{
    auto string = [](const std::string &text) {
        JsonValue value = parseJson(text, "doc.json");
        EXPECT_EQ(value.kind, JsonValue::Kind::String);
        return value.text;
    };
    EXPECT_EQ(string("\"caf\\u00e9\""), "caf\xc3\xa9");
    EXPECT_EQ(string("\"caf\xc3\xa9\""), "caf\xc3\xa9");
    EXPECT_EQ(string("\"\\u20AC\""), "\xe2\x82\xac");
    // A surrogate pair is one character, four UTF-8 bytes.
    EXPECT_EQ(string("\"\\ud83d\\ude00\""), "\xf0\x9f\x98\x80");
    EXPECT_EQ(string("\"\\u0000\""), std::string(1, '\0'));
    EXPECT_EQ(string("\"\\\"\\\\\\/\\b\\f\\n\\r\\t\""),
              "\"\\/\b\f\n\r\t");
}

TEST(Json, NumbersAndLiterals)
{
    JsonValue doc = parseJson(
        "[0, -0, 2e3, 1.5E-2, 9007199254740993, 18446744073709551615,"
        " 18446744073709551616, -1, 7.9, true, false, null]",
        "doc.json");
    ASSERT_EQ(doc.items.size(), 12u);
    const auto &v = doc.items;
    EXPECT_EQ(v[2].number, 2000.0);
    EXPECT_EQ(v[3].number, 0.015);
    EXPECT_EQ(v[3].text, "1.5E-2");
    EXPECT_EQ(v[0].truncatedUint(), 0u);
    EXPECT_EQ(v[1].truncatedUint(), 0u);
    EXPECT_EQ(v[2].truncatedUint(), 2000u);
    // Integer tokens are exact, even past 2^53.
    EXPECT_EQ(v[4].truncatedUint(), 9007199254740993u);
    EXPECT_EQ(v[5].truncatedUint(), UINT64_MAX);
    EXPECT_EQ(v[6].truncatedUint(), std::nullopt);
    EXPECT_EQ(v[7].truncatedUint(), std::nullopt);
    EXPECT_EQ(v[8].truncatedUint(), 7u);
    EXPECT_EQ(v[9].kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(v[9].boolean);
    EXPECT_EQ(v[10].kind, JsonValue::Kind::Bool);
    EXPECT_FALSE(v[10].boolean);
    EXPECT_EQ(v[11].kind, JsonValue::Kind::Null);
    EXPECT_EQ(v[9].truncatedUint(), std::nullopt);
}

TEST(Json, ValuesAndKeysRecordTheirByteOffsets)
{
    const std::string text = " {\"a\": [1, \"x\"], \"b\": {}, \"a\": 2}";
    JsonValue doc = parseJson(text, "doc.json");
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    EXPECT_EQ(doc.offset, 1u);
    ASSERT_EQ(doc.members.size(), 3u);
    EXPECT_EQ(doc.members[0].keyOffset, 2u);
    EXPECT_EQ(doc.members[0].value.offset, 7u);
    EXPECT_EQ(doc.members[0].value.items[1].offset, 11u);
    EXPECT_EQ(doc.members[1].keyOffset, 17u);
    EXPECT_EQ(doc.members[1].value.offset, 22u);
    // Duplicate keys are kept; field() finds the first.
    EXPECT_EQ(doc.members[2].key, "a");
    EXPECT_EQ(doc.field("a")->kind, JsonValue::Kind::Array);
    EXPECT_EQ(doc.field("c"), nullptr);
}

/** Write @p bytes to @p path. */
void
writeBytes(const std::string &path, const std::string &bytes)
{
    FileWriter writer(path, /*binary=*/true);
    writer.stream() << bytes;
    writer.close();
}

/** Load the compilation database @p bytes; "" when it loads, else
 *  the FatalError's message (any other exception fails the test). */
std::string
compileDbError(const std::string &path, const std::string &bytes)
{
    writeBytes(path, bytes);
    try {
        analyze::loadCompileDb(path);
    } catch (const FatalError &error) {
        return error.what();
    }
    return "";
}

const char kThreeEntryDb[] = R"([
  {"directory": "/work/build", "file": "../src/a.cc",
   "command": "c++ -I/work/src -isystem /ext/inc -c ../src/a.cc"},
  {"directory": "/work/build", "file": "/work/src/b.cc",
   "arguments": ["c++", "-I", "gen", "-c", "/work/src/b.cc"]},
  {"directory": "/work", "file": "tools/c.cc", "output": "c.o",
   "command": "c++ \"-Iquoted dir\" -c tools/c.cc"}
]
)";

TEST(CompileDb, ReadsBothInvocationEncodings)
{
    std::string path = testing::TempDir() + "compile_db_ok.json";
    writeBytes(path, kThreeEntryDb);
    auto db = analyze::loadCompileDb(path);
    std::remove(path.c_str());
    ASSERT_EQ(db.size(), 3u);
    EXPECT_EQ(db[0].file, "/work/src/a.cc");
    EXPECT_EQ(db[0].includeDirs,
              (std::vector<std::string>{"/work/src", "/ext/inc"}));
    EXPECT_EQ(db[1].file, "/work/src/b.cc");
    EXPECT_EQ(db[1].includeDirs,
              std::vector<std::string>{"/work/build/gen"});
    EXPECT_EQ(db[2].file, "/work/tools/c.cc");
    EXPECT_EQ(db[2].includeDirs,
              std::vector<std::string>{"/work/quoted dir"});
}

TEST(CompileDb, MalformedDatabasesNameTheirByte)
{
    std::string path = testing::TempDir() + "compile_db_bad.json";
    const std::vector<std::pair<std::string, std::string>> rows = {
        // 200 000 nested '[' overflowed the stack of the old reader.
        {std::string(200000, '['), "malformed JSON at byte 256: "
                                   "nesting deeper than 256 levels"},
        {"[tttt]", "malformed JSON at byte 1: expected a value"},
        {"[{\"directory\": \"/w\", \"file\": \"a.cc\"",
         "malformed JSON at byte 35: unexpected end of input"},
        {"{}", "compilation database must be a JSON array at byte 0"},
        {"[1]", "database entry is not an object at byte 1"},
        {"[{\"directory\": \"/w\"}]",
         "entry lacks a string \"file\" at byte 1"},
        {"[{\"file\": \"a.cc\", \"directory\": 3}]",
         "entry lacks a string \"directory\" at byte 1"},
        {"[{\"file\": \"a.cc\", \"directory\": \"/w\"}]",
         "entry for /w/a.cc has neither \"command\" nor \"arguments\" "
         "at byte 1"},
    };
    for (const auto &[text, what] : rows) {
        SCOPED_TRACE(text.substr(0, 40));
        EXPECT_EQ(compileDbError(path, text), "fatal: " + path + ": " + what);
    }
    std::remove(path.c_str());
}

TEST(CompileDb, EveryPrefixAndByteFlipLoadsOrNamesPathAndByte)
{
    std::string path = testing::TempDir() + "compile_db_fuzz.json";
    const std::string db = kThreeEntryDb;
    auto check = [&](const std::string &bytes) {
        std::string what = compileDbError(path, bytes);
        if (what.empty())
            return;
        EXPECT_EQ(what.rfind("fatal: " + path + ": ", 0), 0u) << what;
        EXPECT_NE(what.find(" at byte "), std::string::npos) << what;
    };
    for (std::size_t length = 0; length < db.size(); ++length) {
        SCOPED_TRACE("prefix of " + std::to_string(length) + " bytes");
        check(db.substr(0, length));
    }
    for (std::size_t at = 0; at < db.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            SCOPED_TRACE("byte " + std::to_string(at) + " bit " +
                         std::to_string(bit));
            std::string flipped = db;
            flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
            check(flipped);
        }
    }
    std::remove(path.c_str());
}

TEST(Matrix, BasicAccessAndTotals)
{
    FlowMatrix m(3, 4, 0.0);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    m(1, 2) = 5.0;
    m(2, 3) = 2.0;
    EXPECT_DOUBLE_EQ(m.total(), 7.0);
    EXPECT_DOUBLE_EQ(m.rowTotal(1), 5.0);
    EXPECT_DOUBLE_EQ(m.colTotal(3), 2.0);
}

TEST(Matrix, OutOfRangePanics)
{
    FlowMatrix m(2, 2, 0.0);
    EXPECT_THROW(m(2, 0), PanicError);
    EXPECT_THROW(m(0, 2), PanicError);
    EXPECT_THROW(m.rowTotal(5), PanicError);
}

TEST(Matrix, PermuteFlowMovesMass)
{
    FlowMatrix flow(3, 3, 0.0);
    flow(0, 1) = 4.0;
    flow(1, 2) = 3.0;
    std::vector<int> map = {2, 0, 1}; // thread t -> core map[t]
    FlowMatrix out = permuteFlow(flow, map);
    EXPECT_DOUBLE_EQ(out(2, 0), 4.0);
    EXPECT_DOUBLE_EQ(out(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(out.total(), flow.total());
}

TEST(Matrix, ToFlowMatrixConverts)
{
    CountMatrix counts(2, 2, 0);
    counts(0, 1) = 7;
    FlowMatrix flow = toFlowMatrix(counts);
    EXPECT_DOUBLE_EQ(flow(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(flow(1, 0), 0.0);
}

TEST(Stats, MeansAgreeOnConstantSamples)
{
    std::vector<double> xs = {2.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.0);
    EXPECT_DOUBLE_EQ(harmonicMean(xs), 2.0);
    EXPECT_DOUBLE_EQ(geometricMean(xs), 2.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, HarmonicBelowGeometricBelowArithmetic)
{
    std::vector<double> xs = {1.0, 2.0, 4.0, 8.0};
    EXPECT_LT(harmonicMean(xs), geometricMean(xs));
    EXPECT_LT(geometricMean(xs), mean(xs));
    EXPECT_DOUBLE_EQ(minOf(xs), 1.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 8.0);
}

TEST(Stats, EmptyAndInvalidSamplesFatal)
{
    std::vector<double> empty;
    EXPECT_THROW(mean(empty), FatalError);
    EXPECT_THROW(harmonicMean({1.0, 0.0}), FatalError);
    EXPECT_THROW(geometricMean({1.0, -2.0}), FatalError);
}

TEST(Csv, EscapesSpecialCharacters)
{
    std::string path = testing::TempDir() + "mnoc_csv_test.csv";
    {
        CsvWriter csv(path);
        csv.cell(std::string("a,b")).cell(1.5).cell(7LL);
        csv.endRow();
        csv.writeRow({"quote\"inside", "plain"});
    }
    std::ifstream in(path);
    std::string line1, line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "\"a,b\",1.5,7");
    EXPECT_EQ(line2, "\"quote\"\"inside\",plain");
    std::remove(path.c_str());
}

TEST(Csv, CloseDetectsFullDisk)
{
    // Regression: CsvWriter used to report success after writing a
    // report to a full device, leaving a truncated table behind.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    try {
        CsvWriter csv("/dev/full");
        for (int i = 0; i < 10000; ++i)
            csv.writeRow({"some", "row", "payload"});
        csv.close();
        FAIL() << "CsvWriter missed the write failure";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("disk full"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Pgm, WritesHeaderAndPixels)
{
    std::string path = testing::TempDir() + "mnoc_pgm_test.pgm";
    FlowMatrix m(2, 3, 0.0);
    m(0, 0) = 10.0;
    writePgmHeatmap(path, m, false);
    std::ifstream in(path, std::ios::binary);
    std::string magic;
    int w, h, maxval;
    in >> magic >> w >> h >> maxval;
    EXPECT_EQ(magic, "P5");
    EXPECT_EQ(w, 3);
    EXPECT_EQ(h, 2);
    EXPECT_EQ(maxval, 255);
    in.ignore();
    std::string pixels(6, '\0');
    in.read(pixels.data(), 6);
    // Max value renders dark (0), zeros render white (255).
    EXPECT_EQ(static_cast<unsigned char>(pixels[0]), 0);
    EXPECT_EQ(static_cast<unsigned char>(pixels[1]), 255);
    std::remove(path.c_str());
}

TEST(Pgm, StampsCommentIntoHeader)
{
    std::string path = testing::TempDir() + "mnoc_pgm_comment.pgm";
    FlowMatrix m(1, 2, 0.0);
    m(0, 0) = 1.0;
    writePgmHeatmap(path, m, true, "run stamp\nwith newline");
    std::ifstream in(path, std::ios::binary);
    std::string magic, comment;
    std::getline(in, magic);
    std::getline(in, comment);
    EXPECT_EQ(magic, "P5");
    // Newlines are flattened so the comment stays one header line.
    EXPECT_EQ(comment, "# run stamp with newline");
    int w = 0, h = 0, maxval = 0;
    in >> w >> h >> maxval;
    EXPECT_EQ(w, 2);
    EXPECT_EQ(h, 1);
    EXPECT_EQ(maxval, 255);
    std::remove(path.c_str());
}

TEST(Pgm, WriteDetectsFullDisk)
{
    // Regression: writePgmHeatmap used to drop ostream errors,
    // yielding truncated heatmaps on full disks.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    FlowMatrix m(256, 256, 1.0);
    try {
        writePgmHeatmap("/dev/full", m);
        FAIL() << "writePgmHeatmap missed the write failure";
    } catch (const FatalError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find("disk full"), std::string::npos) << what;
        EXPECT_NE(what.find("/dev/full"), std::string::npos) << what;
    }
}

TEST(Table, AlignsAndUnderlinesHeader)
{
    TextTable t;
    t.addRow({"name", "value"});
    t.addRow({"x", "1.25"});
    std::ostringstream os;
    t.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);
    EXPECT_NE(text.find("1.25"), std::string::npos);
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
}

/** A count-kind knob's parsed value. */
long long
knobNumber(const char *name, const char *text)
{
    return parseKnob(name, text).number;
}

/** Expect parseKnob(@p name, @p bad) to fatal naming the knob and
 *  the value. */
void
expectKnobRejects(const char *name, const char *bad)
{
    try {
        parseKnob(name, bad);
        FAIL() << name << " accepted '" << bad << "'";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(name), std::string::npos)
            << err.what();
        EXPECT_NE(std::string(err.what()).find(bad), std::string::npos)
            << err.what();
    }
}

TEST(Knobs, ParsePositiveCountFallsBackOnlyWhenUnset)
{
    EXPECT_EQ(knobNumber("MNOC_EPOCH_MSGS", nullptr), 1024);
    EXPECT_EQ(knobNumber("MNOC_EPOCH_MSGS", ""), 1024);
    EXPECT_EQ(knobNumber("MNOC_EPOCH_MSGS", "1"), 1);
    EXPECT_EQ(knobNumber("MNOC_FAULT_SEED", "65536"), 65536);
}

TEST(Knobs, ParsePositiveCountFatalsOnGarbageNamingTheKnob)
{
    // A mistyped knob must stop the run, not quietly fall back.
    for (const char *bad : {"banana", "0", "-3", "12abc", "1.5", " 7x"})
        expectKnobRejects("MNOC_EPOCH_MSGS", bad);
    expectKnobRejects("MNOC_FAULT_SEED", "0");
}

TEST(Knobs, PositiveCountsRejectOverflow)
{
    // A count that does not fit must stop the run, not run clamped
    // to 2^63 - 1.
    for (const KnobSpec &spec : knobTable())
        if (spec.kind == KnobKind::PositiveCount)
            expectKnobRejects(spec.name, "99999999999999999999");
}

TEST(Knobs, BenchIntegersAreWholeTokens)
{
    // The bench knobs share the strict whole-token contract ("12x"
    // is not 12), and empty means unset, as for every knob.
    for (const char *name : {"MNOC_BENCH_CORES", "MNOC_BENCH_OPS"}) {
        for (const char *bad : {"12x", "abc", "99999999999"})
            expectKnobRejects(name, bad);
        EXPECT_FALSE(parseKnob(name, "").set());
    }
    EXPECT_EQ(knobNumber("MNOC_BENCH_CORES", ""), 256);
    EXPECT_EQ(knobNumber("MNOC_BENCH_OPS", nullptr), 4000);
    EXPECT_EQ(knobNumber("MNOC_BENCH_CORES", "64"), 64);
    EXPECT_EQ(parseKnob("MNOC_BENCH_DIR", nullptr).text, "bench_out");
    EXPECT_EQ(parseKnob("MNOC_BENCH_DIR", "out/x").text, "out/x");
}

TEST(Knobs, ParseBoolKnobAcceptsOnlyZeroAndOne)
{
    EXPECT_FALSE(parseKnob("MNOC_LEDGER", nullptr).enabled);
    EXPECT_FALSE(parseKnob("MNOC_LEDGER", "").enabled);
    EXPECT_FALSE(parseKnob("MNOC_LEDGER", "0").enabled);
    EXPECT_TRUE(parseKnob("MNOC_LEDGER", "1").enabled);

    // Garbage must stop the run, naming the knob and the value --
    // the parity contract with MNOC_THREADS/MNOC_FAULTS.
    for (const char *bad : {"2", "yes", "true", "on", "banana"})
        expectKnobRejects("MNOC_LEDGER", bad);
}

TEST(Knobs, ParsePathKnobSplitsFlagFromExportPath)
{
    EXPECT_FALSE(parseKnob("MNOC_METRICS", nullptr).enabled);
    EXPECT_FALSE(parseKnob("MNOC_METRICS", "").enabled);
    EXPECT_FALSE(parseKnob("MNOC_METRICS", "0").enabled);

    KnobValue on = parseKnob("MNOC_METRICS", "1");
    EXPECT_TRUE(on.enabled);
    EXPECT_TRUE(on.text.empty());

    KnobValue path = parseKnob("MNOC_TRACE_SPANS", "out/metrics.json");
    EXPECT_TRUE(path.enabled);
    EXPECT_EQ(path.text, "out/metrics.json");
}

TEST(Knobs, ParsePathKnobFatalsOnMistypedFlags)
{
    // Values that are clearly an attempt at a boolean (or a count)
    // must not be silently taken as file names.
    for (const char *bad :
         {"true", "FALSE", "yes", "No", "ON", "off", "2", "01"})
        expectKnobRejects("MNOC_METRICS", bad);
}

TEST(Knobs, FaultKnobsDefaultOffWithSeedOne)
{
    // The test runner leaves MNOC_FAULTS/MNOC_FAULT_SEED unset, so
    // the cached getters must land on their documented defaults.
    EXPECT_FALSE(faultsEnabled());
    EXPECT_EQ(faultSeed(), 1u);
}

TEST(Knobs, AdaptKnobsDefaultOffWithWindowThirtyTwo)
{
    // The test runner leaves MNOC_ADAPT/MNOC_ADAPT_WINDOW unset, so
    // the cached getters must land on their documented defaults.
    EXPECT_FALSE(adaptEnabled());
    EXPECT_EQ(adaptWindow(), 32u);
}

TEST(Knobs, AdaptKnobsAreStrictFromDayOne)
{
    // MNOC_ADAPT shares the 0/1 contract, MNOC_ADAPT_WINDOW the
    // positive-count contract; both must fatal on garbage naming the
    // knob and the value rather than fall back to a default.
    for (const char *bad : {"2", "yes", "on", "banana"})
        expectKnobRejects("MNOC_ADAPT", bad);
    for (const char *bad : {"0", "-4", "8.5", "wide", "16x"})
        expectKnobRejects("MNOC_ADAPT_WINDOW", bad);
    EXPECT_EQ(knobNumber("MNOC_ADAPT_WINDOW", "16"), 16);
}

TEST(Knobs, ParseLogLevelKnobIsStrict)
{
    auto level = [](const char *text) {
        return static_cast<LogLevel>(
            knobNumber("MNOC_LOG_LEVEL", text));
    };
    EXPECT_EQ(level(nullptr), LogLevel::Info);
    EXPECT_EQ(level(""), LogLevel::Info);
    EXPECT_EQ(level("info"), LogLevel::Info);
    EXPECT_EQ(level("warn"), LogLevel::Warn);
    EXPECT_EQ(level("quiet"), LogLevel::Quiet);

    // A typo like "qiuet" must not silently re-enable warnings, and
    // the casing is part of the contract.
    for (const char *bad : {"qiuet", "INFO", "verbose", "2", "Warn"})
        expectKnobRejects("MNOC_LOG_LEVEL", bad);
}

TEST(Knobs, TableHoldsEachKnobOnceWithAClass)
{
    std::set<std::string> names;
    int result_knobs = 0;
    for (const KnobSpec &spec : knobTable()) {
        EXPECT_EQ(std::string(spec.name).rfind("MNOC_", 0), 0u);
        EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
        EXPECT_NE(std::string(spec.doc), "");
        result_knobs += spec.klass == KnobClass::Result ? 1 : 0;
    }
    EXPECT_EQ(names.size(), 14u);
    EXPECT_EQ(result_knobs, 8);
    EXPECT_THROW(parseKnob("MNOC_NO_SUCH_KNOB", "1"), PanicError);
}

} // namespace
