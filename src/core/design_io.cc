#include "core/design_io.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/io.hh"
#include "common/log.hh"

namespace mnoc::core {

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
    auto &out = writer.stream();
    out << std::setprecision(17);
    out << "mnoc-design 1\n";
    out << n << " " << design.topology.numModes << "\n";
    for (int s = 0; s < n; ++s) {
        const auto &local = design.topology.local(s);
        const auto &source = design.sources[s];
        out << "source " << s << "\n";
        out << "modes";
        for (int d = 0; d < n; ++d)
            out << " " << local.modeOfDest[d];
        out << "\n";
        out << "alpha";
        for (double a : source.alpha)
            out << " " << a;
        out << "\n";
        out << "modepower";
        for (WattPower p : source.modePower)
            out << " " << p.watts();
        out << "\n";
        out << "splitters";
        for (double frac : source.chain.splitterFraction)
            out << " " << frac;
        out << "\n";
        out << "injected " << source.chain.injectedPower.watts()
            << " expected " << source.expectedPower.watts() << "\n";
        out << "targets";
        for (double t : source.chain.targets)
            out << " " << t;
        out << "\n";
    }
    if (resilience) {
        const auto &r = *resilience;
        out << "resilience\n";
        out << "target " << r.yieldTarget << " trials " << r.trials
            << " seed " << r.seed << "\n";
        out << "spec " << r.spec.splitterSigma << " "
            << r.spec.couplerSigma.dB() << " "
            << r.spec.waveguideSigmaPerCm.dB() << " "
            << r.spec.splitterInsertionSigma.dB() << " "
            << r.spec.ledDroopSigma << " " << r.spec.miopSigma.dB()
            << "\n";
        out << "final yield " << r.finalYield << " margin "
            << r.finalMargin.dB() << " modes " << r.finalNumModes
            << " met " << (r.metTarget ? 1 : 0) << "\n";
        out << "steps " << r.path.size() << "\n";
        for (const auto &step : r.path) {
            out << "step "
                << (step.kind == DegradationStep::Kind::Margin
                        ? "margin"
                        : "collapse")
                << " " << step.numModes << " " << step.collapsedMode
                << " " << step.margin.dB() << " " << step.yield << "\n";
        }
    }
    if (manifest) {
        auto lines = manifestLines(*manifest);
        out << "manifest " << lines.size() << "\n";
        for (const auto &line : lines)
            out << line << "\n";
    }
    // Surface a full disk or revoked permissions here, not as a
    // truncated design on the next load.
    writer.close();
}

namespace {

/**
 * Whitespace-separated tokenizer that tracks the current line so every
 * parse error names the file, the 1-based line, and the field being
 * read -- "design.txt:14: field 'alpha': expected a number" instead of
 * a bare "malformed design file".
 */
class Parser
{
  public:
    Parser(std::istream &in, std::string path)
        : in_(in), path_(std::move(path))
    {}

    /** "path:line: field 'name': why" as a fatal error. */
    [[noreturn]] void
    fail(const std::string &field, const std::string &why) const
    {
        fatal(path_ + ":" + std::to_string(line_) + ": field '" +
              field + "': " + why);
    }

    /** Next whitespace-separated token; fatal at end of file. */
    std::string
    token(const std::string &field)
    {
        std::string out;
        int c = in_.get();
        while (c != std::istream::traits_type::eof() &&
               std::isspace(c)) {
            if (c == '\n')
                ++line_;
            c = in_.get();
        }
        while (c != std::istream::traits_type::eof() &&
               !std::isspace(static_cast<unsigned char>(c))) {
            out.push_back(static_cast<char>(c));
            c = in_.get();
        }
        // Leave the delimiter (and its line count) to the next call,
        // so errors about this token report this token's line.
        if (c != std::istream::traits_type::eof())
            in_.unget();
        if (out.empty())
            fail(field, "unexpected end of file");
        return out;
    }

    /** True when only whitespace remains. */
    bool
    atEnd()
    {
        int c = in_.get();
        while (c != std::istream::traits_type::eof() &&
               std::isspace(c)) {
            if (c == '\n')
                ++line_;
            c = in_.get();
        }
        if (c == std::istream::traits_type::eof())
            return true;
        in_.unget();
        return false;
    }

    /** Expect the literal @p keyword next. */
    void
    expect(const std::string &keyword)
    {
        std::string got = token(keyword);
        if (got != keyword)
            fail(keyword, "expected keyword, got '" + got + "'");
    }

    double
    number(const std::string &field)
    {
        std::string tok = token(field);
        std::size_t used = 0;
        double value = 0.0;
        try {
            value = std::stod(tok, &used);
        } catch (const std::exception &) {
            fail(field, "expected a number, got '" + tok + "'");
        }
        if (used != tok.size())
            fail(field, "expected a number, got '" + tok + "'");
        return value;
    }

    long long
    integer(const std::string &field)
    {
        std::string tok = token(field);
        std::size_t used = 0;
        long long value = 0;
        try {
            value = std::stoll(tok, &used);
        } catch (const std::exception &) {
            fail(field, "expected an integer, got '" + tok + "'");
        }
        if (used != tok.size())
            fail(field, "expected an integer, got '" + tok + "'");
        return value;
    }

    /** integer() range-checked before it narrows to int. */
    int
    narrowInteger(const std::string &field)
    {
        long long value = integer(field);
        if (value < std::numeric_limits<int>::min() ||
            value > std::numeric_limits<int>::max())
            fail(field, "value out of range");
        return static_cast<int>(value);
    }

    std::uint64_t
    unsignedInteger(const std::string &field)
    {
        std::string tok = token(field);
        std::size_t used = 0;
        std::uint64_t value = 0;
        // stoull would wrap "-1" to 2^64 - 1.
        if (tok[0] == '-' || tok[0] == '+')
            fail(field, "expected an unsigned integer, got '" + tok +
                            "'");
        try {
            value = std::stoull(tok, &used);
        } catch (const std::exception &) {
            fail(field, "expected an unsigned integer, got '" + tok +
                            "'");
        }
        if (used != tok.size())
            fail(field,
                 "expected an unsigned integer, got '" + tok + "'");
        return value;
    }

    /** Read "<label> v0 v1 ..." as @p count numbers. */
    std::vector<double>
    numberLine(const std::string &label, int count)
    {
        expect(label);
        std::vector<double> values(static_cast<std::size_t>(count));
        for (double &v : values)
            v = number(label);
        return values;
    }

    /** Read "<label> v0 v1 ..." as @p count integers. */
    std::vector<int>
    integerLine(const std::string &label, int count)
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
               const std::string &field) const
    {
        for (double v : values)
            if (!std::isfinite(v) || v < lo || v > hi)
                fail(field, "value out of range");
    }

  private:
    std::istream &in_;
    std::string path_;
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
        std::string kind = parser.token("step kind");
        if (kind != "margin" && kind != "collapse")
            parser.fail("step kind",
                        "expected 'margin' or 'collapse', got '" +
                            kind + "'");
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
    std::ifstream in(path);
    if (!in.is_open())
        fatal("cannot open design file: " + path);
    Parser parser(in, path);

    std::string magic = parser.token("header");
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
        std::string trailer = parser.token("trailer");
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
                std::string key = parser.token("manifest key");
                std::string a = parser.token("manifest value");
                std::string b;
                if (key == "env")
                    b = parser.token("manifest env value");
                if (!setManifestField(manifest, key, a, b))
                    parser.fail("manifest " + key,
                                "malformed value '" + a + "'");
            }
            report.manifest = manifest;
        } else {
            parser.fail("trailer",
                        "trailing garbage '" + trailer + "'");
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
    std::ifstream in(path);
    if (!in.is_open())
        fatal("cannot open mapping file: " + path);
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
