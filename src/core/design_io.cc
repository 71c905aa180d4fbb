#include "core/design_io.hh"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/io.hh"
#include "common/log.hh"
#include "common/trace_span.hh"

namespace mnoc::core {

namespace {

/** Ends a LineWriter line: `line << "source" << s << endLine;`. */
struct EndLine
{};
constexpr EndLine endLine;

/**
 * One text line of a design file, built in a buffer and handed to the
 * stream in one write.  Fields are separated by one space.  A double
 * is formatted by std::to_chars as printf's "%.17g", which is
 * byte-for-byte what `ostream << setprecision(17)` wrote and round
 * trips every double exactly; an integer is plain decimal.
 */
class LineWriter
{
  public:
    explicit LineWriter(std::ostream &out) : out_(out) {}

    template <typename T>
    LineWriter &
    operator<<(const T &field)
    {
        if (!text_.empty())
            text_ += ' ';
        if constexpr (std::is_convertible_v<const T &, std::string_view>) {
            text_ += std::string_view(field);
        } else {
            // "%.17g" of a double is at most 24 bytes.
            char digits[32];
            std::to_chars_result done;
            if constexpr (std::is_floating_point_v<T>)
                done = std::to_chars(digits, digits + sizeof digits,
                                     field, std::chars_format::general,
                                     17);
            else
                done = std::to_chars(digits, digits + sizeof digits,
                                     field);
            text_.append(digits, done.ptr);
        }
        return *this;
    }

    /** Write the line with its LF and start the next one. */
    LineWriter &
    operator<<(EndLine)
    {
        text_ += '\n';
        out_.write(text_.data(),
                   static_cast<std::streamsize>(text_.size()));
        text_.clear();
        return *this;
    }

  private:
    std::ostream &out_;
    std::string text_;
};

} // namespace

void
saveDesign(const std::string &path, const MnocDesign &design,
           const ResilienceSummary *resilience,
           const RunManifest *manifest)
{
    design.topology.validate();
    int n = design.topology.numNodes;
    fatalIf(static_cast<int>(design.sources.size()) != n,
            "design is missing per-source solutions");

    FileWriter writer(path);
    LineWriter line(writer.stream());
    line << "mnoc-design" << 1 << endLine;
    line << n << design.topology.numModes << endLine;
    for (int s = 0; s < n; ++s) {
        const auto &local = design.topology.local(s);
        const auto &source = design.sources[s];
        line << "source" << s << endLine;
        line << "modes";
        for (int d = 0; d < n; ++d)
            line << local.modeOfDest[d];
        line << endLine;
        line << "alpha";
        for (double a : source.alpha)
            line << a;
        line << endLine;
        line << "modepower";
        for (WattPower p : source.modePower)
            line << p.watts();
        line << endLine;
        line << "splitters";
        for (double frac : source.chain.splitterFraction)
            line << frac;
        line << endLine;
        line << "injected" << source.chain.injectedPower.watts()
             << "expected" << source.expectedPower.watts() << endLine;
        line << "targets";
        for (double t : source.chain.targets)
            line << t;
        line << endLine;
    }
    if (resilience) {
        const auto &r = *resilience;
        line << "resilience" << endLine;
        line << "target" << r.yieldTarget << "trials" << r.trials
             << "seed" << r.seed << endLine;
        line << "spec" << r.spec.splitterSigma << r.spec.couplerSigma.dB()
             << r.spec.waveguideSigmaPerCm.dB()
             << r.spec.splitterInsertionSigma.dB()
             << r.spec.ledDroopSigma << r.spec.miopSigma.dB() << endLine;
        line << "final" << "yield" << r.finalYield << "margin"
             << r.finalMargin.dB() << "modes" << r.finalNumModes
             << "met" << (r.metTarget ? 1 : 0) << endLine;
        line << "steps" << r.path.size() << endLine;
        for (const auto &step : r.path) {
            line << "step"
                 << (step.kind == DegradationStep::Kind::Margin
                         ? "margin"
                         : "collapse")
                 << step.numModes << step.collapsedMode
                 << step.margin.dB() << step.yield << endLine;
        }
    }
    if (manifest) {
        auto lines = manifestLines(*manifest);
        line << "manifest" << lines.size() << endLine;
        for (const auto &entry : lines)
            line << entry << endLine;
    }
    // Surface a full disk or revoked permissions here, not as a
    // truncated design on the next load.
    writer.close();
}

namespace {

/** Whitespace as the C locale's isspace() has it. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * Whitespace-separated tokenizer over the bytes of a design file.  It
 * counts lines as it goes, so every parse error names the file, the
 * 1-based line and the field being read -- "design.txt:14: field
 * 'alpha': expected a number" instead of a bare "malformed design
 * file".  Tokens are views into the file's bytes.
 *
 * Number rule: a token is read by std::from_chars and must be used
 * up by it.
 *  - A number (number()) is an optional '-', decimal digits with an
 *    optional fraction and exponent, or inf/infinity/nan in any case.
 *    A leading '+' and hex floats ("0x1p-3") are rejected, as they
 *    are in traces.  A value beyond the double range ("1e999") or one
 *    that underflows to zero ("1e-400") is rejected; a subnormal
 *    ("4.9406564584124654e-324") is taken exactly, so every double
 *    saveDesign() writes loads back bit for bit.  Range checks
 *    (checkRange()) reject a non-finite value where one is applied.
 *  - An integer (integer()) is an optional '-' and decimal digits
 *    that fit a 64-bit integer; an unsigned one takes no sign.
 */
class Parser
{
  public:
    Parser(std::string_view text, const std::string &path)
        : rest_(text), path_(path)
    {}

    /** "path:line: field 'name': why" as a fatal error. */
    [[noreturn]] void
    fail(std::string_view field, const std::string &why) const
    {
        fatal(path_ + ":" + std::to_string(line_) + ": field '" +
              std::string(field) + "': " + why);
    }

    /** Next whitespace-separated token; fatal at end of file. */
    std::string_view
    token(std::string_view field)
    {
        skipSpace();
        // The delimiter (and its line count) stays for the next call,
        // so errors about this token report this token's line.
        std::size_t size = 0;
        while (size < rest_.size() && !isSpace(rest_[size]))
            ++size;
        if (size == 0)
            fail(field, "unexpected end of file");
        std::string_view out = rest_.substr(0, size);
        rest_.remove_prefix(size);
        return out;
    }

    /** True when only whitespace remains. */
    bool
    atEnd()
    {
        skipSpace();
        return rest_.empty();
    }

    /** Expect the literal @p keyword next. */
    void
    expect(std::string_view keyword)
    {
        std::string_view got = token(keyword);
        if (got != keyword)
            fail(keyword, "expected keyword, got '" + std::string(got) +
                              "'");
    }

    double
    number(std::string_view field)
    {
        return read<double>(field, "a number");
    }

    long long
    integer(std::string_view field)
    {
        return read<long long>(field, "an integer");
    }

    /** integer() range-checked before it narrows to int. */
    int
    narrowInteger(std::string_view field)
    {
        long long value = integer(field);
        if (value < std::numeric_limits<int>::min() ||
            value > std::numeric_limits<int>::max())
            fail(field, "value out of range");
        return static_cast<int>(value);
    }

    std::uint64_t
    unsignedInteger(std::string_view field)
    {
        return read<std::uint64_t>(field, "an unsigned integer");
    }

    /** Read "<label> v0 v1 ..." as @p count numbers. */
    std::vector<double>
    numberLine(std::string_view label, int count)
    {
        expect(label);
        std::vector<double> values(static_cast<std::size_t>(count));
        for (double &v : values)
            v = number(label);
        return values;
    }

    /** Read "<label> v0 v1 ..." as @p count integers. */
    std::vector<int>
    integerLine(std::string_view label, int count)
    {
        expect(label);
        std::vector<int> values(static_cast<std::size_t>(count));
        for (int &v : values)
            v = narrowInteger(label);
        return values;
    }

    /** Fatal unless every value is finite and within [lo, hi]. */
    void
    checkRange(const std::vector<double> &values, double lo, double hi,
               std::string_view field) const
    {
        for (double v : values)
            if (!std::isfinite(v) || v < lo || v > hi)
                fail(field, "value out of range");
    }

  private:
    void
    skipSpace()
    {
        while (!rest_.empty() && isSpace(rest_.front())) {
            if (rest_.front() == '\n')
                ++line_;
            rest_.remove_prefix(1);
        }
    }

    /** The next token as one @p T; fatal naming @p what otherwise. */
    template <typename T>
    T
    read(std::string_view field, const char *what)
    {
        std::string_view tok = token(field);
        const char *end = tok.data() + tok.size();
        T value{};
        auto [stop, ec] = std::from_chars(tok.data(), end, value);
        if (ec != std::errc() || stop != end)
            fail(field, std::string("expected ") + what + ", got '" +
                            std::string(tok) + "'");
        return value;
    }

    std::string_view rest_;
    const std::string &path_;
    int line_ = 1;
};

ResilienceSummary
readResilience(Parser &parser)
{
    ResilienceSummary r;
    parser.expect("target");
    r.yieldTarget = parser.number("target");
    if (!std::isfinite(r.yieldTarget) || r.yieldTarget < 0.0 ||
        r.yieldTarget > 1.0)
        parser.fail("target", "must lie in [0, 1]");
    parser.expect("trials");
    r.trials = parser.narrowInteger("trials");
    if (r.trials < 1)
        parser.fail("trials", "must be at least 1");
    parser.expect("seed");
    r.seed = parser.unsignedInteger("seed");
    parser.expect("spec");
    r.spec.splitterSigma = parser.number("spec.splitterSigma");
    r.spec.couplerSigma = DecibelLoss(parser.number("spec.couplerSigma"));
    r.spec.waveguideSigmaPerCm =
        DecibelLoss(parser.number("spec.waveguideSigmaPerCm"));
    r.spec.splitterInsertionSigma =
        DecibelLoss(parser.number("spec.splitterInsertionSigma"));
    r.spec.ledDroopSigma = parser.number("spec.ledDroopSigma");
    r.spec.miopSigma = DecibelLoss(parser.number("spec.miopSigma"));
    parser.expect("final");
    parser.expect("yield");
    r.finalYield = parser.number("final yield");
    parser.expect("margin");
    r.finalMargin = DecibelLoss(parser.number("final margin"));
    parser.expect("modes");
    r.finalNumModes = parser.narrowInteger("final modes");
    parser.expect("met");
    r.metTarget = parser.integer("met") != 0;
    parser.expect("steps");
    long long count = parser.integer("steps");
    if (count < 0 || count > 1000000)
        parser.fail("steps", "step count out of range");
    r.spec.validate();
    if (r.finalNumModes < 1)
        parser.fail("final modes", "must be at least 1");
    if (!std::isfinite(r.finalYield) || r.finalYield < 0.0 ||
        r.finalYield > 1.0)
        parser.fail("final yield", "must lie in [0, 1]");
    if (!std::isfinite(r.finalMargin.dB()) ||
        r.finalMargin < DecibelLoss(0.0))
        parser.fail("final margin", "must be non-negative");
    r.path.resize(static_cast<std::size_t>(count));
    for (auto &step : r.path) {
        parser.expect("step");
        std::string_view kind = parser.token("step kind");
        if (kind != "margin" && kind != "collapse")
            parser.fail("step kind",
                        "expected 'margin' or 'collapse', got '" +
                            std::string(kind) + "'");
        step.kind = kind == "margin" ? DegradationStep::Kind::Margin
                                     : DegradationStep::Kind::Collapse;
        step.numModes = parser.narrowInteger("step modes");
        step.collapsedMode = parser.narrowInteger("step collapsed mode");
        step.margin = DecibelLoss(parser.number("step margin"));
        step.yield = parser.number("step yield");
        if (step.numModes < 1)
            parser.fail("step modes", "must be at least 1");
    }
    return r;
}

} // namespace

DesignReport
loadDesignReport(const std::string &path)
{
    TraceSpan span("loadDesign", "io");
    const std::string bytes = readWholeFile(path, "design");
    Parser parser(bytes, path);

    std::string_view magic = parser.token("header");
    long long version = parser.integer("header version");
    if (magic != "mnoc-design" || version != 1)
        parser.fail("header", "unrecognized design file header");

    int n = parser.narrowInteger("node count");
    int num_modes = parser.narrowInteger("mode count");
    if (n < 2 || n > 1000000)
        parser.fail("node count", "must lie in [2, 1000000]");
    if (num_modes < 1 || num_modes > n)
        parser.fail("mode count", "must lie in [1, node count]");

    DesignReport report;
    auto &design = report.design;
    design.topology.numNodes = n;
    design.topology.numModes = num_modes;
    design.topology.locals.resize(static_cast<std::size_t>(n));
    design.sources.resize(static_cast<std::size_t>(n));

    for (int s = 0; s < n; ++s) {
        parser.expect("source");
        long long index = parser.integer("source index");
        if (index != s)
            parser.fail("source index",
                        "expected " + std::to_string(s) + ", got " +
                            std::to_string(index));

        auto &local = design.topology.locals[s];
        local.source = s;
        local.numModes = num_modes;
        local.modeOfDest = parser.integerLine("modes", n);

        auto &source = design.sources[s];
        source.alpha = parser.numberLine("alpha", num_modes);
        parser.checkRange(source.alpha, 0.0, 1.0, "alpha");
        std::vector<double> mode_power =
            parser.numberLine("modepower", num_modes);
        parser.checkRange(mode_power, 0.0, 1e6, "modepower");
        source.modePower.clear();
        source.modePower.reserve(mode_power.size());
        for (double p : mode_power)
            source.modePower.push_back(WattPower(p));
        source.chain.source = s;
        source.chain.splitterFraction =
            parser.numberLine("splitters", n);
        parser.checkRange(source.chain.splitterFraction, 0.0, 1.0,
                          "splitters");

        parser.expect("injected");
        double injected = parser.number("injected");
        parser.expect("expected");
        double expected = parser.number("expected");
        parser.checkRange({injected, expected}, 0.0, 1e6,
                          "injected/expected");
        source.chain.injectedPower = WattPower(injected);
        source.expectedPower = WattPower(expected);
        source.chain.targets = parser.numberLine("targets", n);
        parser.checkRange(source.chain.targets, 0.0, 1e6, "targets");
        source.modeOfDest = local.modeOfDest;
    }
    design.topology.validate();

    while (!parser.atEnd()) {
        std::string_view trailer = parser.token("trailer");
        if (trailer == "resilience") {
            if (report.resilience)
                parser.fail("trailer", "duplicate resilience block");
            report.resilience = readResilience(parser);
        } else if (trailer == "manifest") {
            if (report.manifest)
                parser.fail("trailer", "duplicate manifest block");
            long long count = parser.integer("manifest entry count");
            if (count < 0 || count > 1000)
                parser.fail("manifest entry count", "out of range");
            RunManifest manifest;
            for (long long i = 0; i < count; ++i) {
                std::string key(parser.token("manifest key"));
                std::string a(parser.token("manifest value"));
                std::string b;
                if (key == "env")
                    b = parser.token("manifest env value");
                if (!setManifestField(manifest, key, a, b))
                    parser.fail("manifest " + key,
                                "malformed value '" + a + "'");
            }
            report.manifest = manifest;
        } else {
            parser.fail("trailer", "trailing garbage '" +
                                       std::string(trailer) + "'");
        }
    }
    return report;
}

MnocDesign
loadDesign(const std::string &path)
{
    return loadDesignReport(path).design;
}

std::vector<DriveTableEntry>
driveTable(const MnocDesign &design, int source)
{
    const auto &local = design.topology.local(source);
    std::vector<DriveTableEntry> table;
    table.reserve(static_cast<std::size_t>(
        design.topology.numNodes - 1));
    for (int d = 0; d < design.topology.numNodes; ++d) {
        if (d == source)
            continue;
        DriveTableEntry entry;
        entry.dest = d;
        entry.mode = local.modeOfDest[d];
        entry.drivePower = design.sources[source].modePower[entry.mode];
        table.push_back(entry);
    }
    return table;
}

std::vector<int>
loadMapping(const std::string &path, int cores)
{
    std::istringstream in(readWholeFile(path, "mapping"));
    std::vector<int> map;
    std::vector<int> line_of(static_cast<std::size_t>(cores), 0);
    std::string text;
    for (int line = 1; std::getline(in, text); ++line) {
        std::istringstream fields(text);
        std::string token;
        auto reject = [&](const std::string &why) {
            fatal(path + ":" + std::to_string(line) + ": field 'core': " +
                  why);
        };
        while (fields >> token) {
            std::size_t used = 0;
            int core = 0;
            // A core id is unsigned; stoi would take "+0" or "-1".
            if (token[0] != '+' && token[0] != '-') {
                try {
                    core = std::stoi(token, &used);
                } catch (const std::exception &) {
                    used = 0;
                }
            }
            if (used != token.size())
                reject("expected an integer, got '" + token + "'");
            if (core >= cores)
                reject("core " + token + " is out of range for " +
                       std::to_string(cores) + " cores");
            int &first = line_of[static_cast<std::size_t>(core)];
            if (first != 0)
                reject("core " + token + " is used twice (first on line " +
                       std::to_string(first) + ")");
            first = line;
            map.push_back(core);
        }
    }
    if (static_cast<int>(map.size()) != cores)
        fatal(path + ": mapping lists " + std::to_string(map.size()) +
              " cores, expected " + std::to_string(cores));
    return map;
}

std::vector<int>
identityMapping(int cores)
{
    std::vector<int> map(static_cast<std::size_t>(cores));
    for (int i = 0; i < cores; ++i)
        map[static_cast<std::size_t>(i)] = i;
    return map;
}

} // namespace mnoc::core
