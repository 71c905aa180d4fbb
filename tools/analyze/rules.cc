#include "tools/analyze/rules.hh"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string_view>
#include <tuple>

namespace mnoc::analyze {

namespace {

/** Container types whose iteration order is unspecified. */
const std::set<std::string> kUnorderedTypes = {
    "std::unordered_map",      "std::unordered_set",
    "std::unordered_multimap", "std::unordered_multiset",
};

/** Types whose instances serialize state (drains of the
 *  unordered-iteration rule). */
const std::set<std::string> kSinkTypes = {
    "FileWriter",   "CsvWriter",    "MetricsRegistry",
    "EnergyLedger", "SpanRecorder", "std::ostream",
    "std::ofstream",
};

/** Free functions / helpers that serialize state. */
const std::set<std::string> kSinkCalls = {
    "saveTrace", "writePgmHeatmap", "escapeJson", "jsonNumber",
};

/** std RNG machinery that bypasses the seeded Prng. */
const std::set<std::string> kStdRng = {
    "std::rand",
    "std::srand",
    "srand",
    "std::random_device",
    "std::mt19937",
    "std::mt19937_64",
    "std::default_random_engine",
    "std::minstd_rand",
    "std::minstd_rand0",
};

/** Functions whose return value reports work the caller must keep
 *  (discarding them is either dead I/O or a swallowed result). */
const std::set<std::string> kMustUseCalls = {
    "loadJournal",
    "loadTrace",
    "mapTrace",
    "toTrace",
};

/** Directories whose sources are power math (float-free zone). */
const char *const kFloatDirs[] = {"src/optics/", "src/core/",
                                  "src/faults/", "src/common/",
                                  "src/runtime/"};

/** Unit suffixes a `double` name must not carry in a header. */
const std::set<std::string> kUnitSuffixes = {"db", "dbm", "w", "uw",
                                             "mw", "m",   "cm"};

/** Column limit of the format rule (mirrors .clang-format). */
constexpr std::size_t kMaxLine = 79;

const std::vector<RuleInfo> kCatalog = {
    {"check-message", "error-handling", "warning",
     "panicIf/fatalIf message is not a string literal"},
    {"discarded-result", "error-handling", "warning",
     "result of a fallible I/O call is discarded"},
    {"float", "unit-safety", "error",
     "float in power math, which is double-only"},
    {"format", "layout", "warning",
     "tab, trailing whitespace or line over 79 columns"},
    {"header-guard", "layout", "warning",
     "header guard does not match MNOC_<PATH>_HH"},
    {"include-cycle", "layering", "error",
     "modules include each other in a cycle"},
    {"include-order", "layout", "warning",
     "includes out of own-header, <system>, \"project\" block "
     "order"},
    {"layering", "layering", "error",
     "include points up the layer order"},
    {"raw-getenv", "determinism", "error",
     "environment read bypasses the knob table in common/knobs"},
    {"raw-ofstream", "error-handling", "warning",
     "raw std::ofstream bypasses the FileWriter choke point"},
    {"raw-pow", "unit-safety", "error",
     "raw pow(10, ...) dB conversion outside common/units.hh"},
    {"raw-thread", "determinism", "error",
     "raw thread primitive bypasses the shared ThreadPool"},
    {"shared-prng", "determinism", "error",
     "Prng shared by reference across ThreadPool tasks"},
    {"unclosed-writer", "error-handling", "warning",
     "FileWriter is never close()d on the checked path"},
    {"unit-param", "unit-safety", "error",
     "double parameter or field with a unit-suffixed name in a "
     "header"},
    {"unordered-iteration", "determinism", "error",
     "unordered-container iteration reaches a serialization sink"},
    {"unseeded-rng", "determinism", "error",
     "std RNG machinery bypasses the seeded Prng"},
    {"wall-clock", "determinism", "error",
     "wall-clock read outside trace_span/manifest"},
};

/** Top-level source category of a root-relative path. */
std::string
categoryOf(const std::string &relpath)
{
    std::size_t slash = relpath.find('/');
    return slash == std::string::npos ? std::string()
                                      : relpath.substr(0, slash);
}

/** True when @p text is @p word or ends with "::word". */
bool
endsWithWord(const std::string &text, const std::string &word)
{
    if (text == word)
        return true;
    if (text.size() <= word.size() + 2)
        return false;
    std::size_t at = text.size() - word.size();
    return text.compare(at, word.size(), word) == 0 &&
           text.compare(at - 2, 2, "::") == 0;
}

/** Last ::-segment of a qualified identifier. */
std::string
lastSegment(const std::string &text)
{
    std::size_t at = text.rfind("::");
    return at == std::string::npos ? text : text.substr(at + 2);
}

/** Lines of @p text split at '\n' (the newline dropped); a final
 *  newline does not open an empty last line. */
std::vector<std::string_view>
splitLines(const std::string &text)
{
    std::vector<std::string_view> out;
    for (std::size_t start = 0; start < text.size();) {
        std::size_t end = std::min(text.find('\n', start), text.size());
        out.emplace_back(text.data() + start, end - start);
        start = end + 1;
    }
    return out;
}

/** Whitespace of the format and layout rules. */
constexpr std::string_view kSpace = " \t\r\v\f";

bool
isBlank(std::string_view line)
{
    return line.find_first_not_of(kSpace) == std::string_view::npos;
}

/** Columns of @p line: UTF-8 code points, not bytes. */
std::size_t
columns(std::string_view line)
{
    return static_cast<std::size_t>(
        std::count_if(line.begin(), line.end(), [](char c) {
            return (static_cast<unsigned char>(c) & 0xC0) != 0x80;
        }));
}

/** src/optics/link_budget.hh -> MNOC_OPTICS_LINK_BUDGET_HH. */
std::string
expectedGuard(const std::string &relpath)
{
    std::string stem = relpath;
    if (stem.starts_with("src/"))
        stem.erase(0, 4);
    if (stem.ends_with(".hh"))
        stem.resize(stem.size() - 3);
    std::string guard = "MNOC_";
    for (char c : stem)
        guard += std::isalnum(static_cast<unsigned char>(c)) != 0
                     ? static_cast<char>(std::toupper(
                           static_cast<unsigned char>(c)))
                     : '_';
    return guard + "_HH";
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/** Index of the token matching @p open_tok ('(' '<' '{' '[') at
 *  @p at, or kNpos when unbalanced. */
std::size_t
matchForward(const std::vector<Token> &toks, std::size_t at,
             char open_tok, char close_tok)
{
    int depth = 0;
    for (std::size_t i = at; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Punct)
            continue;
        if (toks[i].text[0] == open_tok)
            ++depth;
        else if (toks[i].text[0] == close_tok && --depth == 0)
            return i;
    }
    return kNpos;
}

bool
isPunct(const Token &tok, char c)
{
    return tok.kind == TokKind::Punct && tok.text[0] == c;
}

/**
 * Collect names declared with one of @p types: after the type token
 * an optional template argument list, cv/ref decorations, then the
 * declared identifier.  Returns name -> declaration token indices.
 */
std::map<std::string, std::vector<std::size_t>>
declaredNames(const std::vector<Token> &toks,
              const std::set<std::string> &types)
{
    std::map<std::string, std::vector<std::size_t>> out;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier)
            continue;
        bool is_type = types.count(toks[i].text) > 0;
        for (const std::string &type : types)
            is_type = is_type || endsWithWord(toks[i].text, type);
        if (!is_type)
            continue;
        std::size_t j = i + 1;
        if (j < toks.size() && isPunct(toks[j], '<')) {
            j = matchForward(toks, j, '<', '>');
            if (j == kNpos)
                continue;
            ++j;
        }
        while (j < toks.size() &&
               (isPunct(toks[j], '&') || isPunct(toks[j], '*') ||
                (toks[j].kind == TokKind::Identifier &&
                 toks[j].text == "const")))
            ++j;
        if (j < toks.size() &&
            toks[j].kind == TokKind::Identifier)
            out[toks[j].text].push_back(j);
    }
    return out;
}

/** Token range [first, last) of the body following token @p at
 *  (either a balanced brace block or a single statement up to ';');
 *  returns {kNpos, kNpos} when the body is unterminated. */
std::pair<std::size_t, std::size_t>
bodyRange(const std::vector<Token> &toks, std::size_t at)
{
    if (at >= toks.size())
        return {kNpos, kNpos};
    if (isPunct(toks[at], '{')) {
        std::size_t close = matchForward(toks, at, '{', '}');
        if (close == kNpos)
            return {kNpos, kNpos};
        return {at + 1, close};
    }
    for (std::size_t i = at; i < toks.size(); ++i)
        if (isPunct(toks[i], ';'))
            return {at, i};
    return {kNpos, kNpos};
}

/** The rule engine for one file; rule methods append findings. */
class FileChecker
{
  public:
    FileChecker(std::string relpath, const std::string &text,
                const LexedFile &file)
        : relpath_(std::move(relpath)), file_(file),
          toks_(file.tokens), lines_(splitLines(text)),
          category_(categoryOf(relpath_))
    {}

    std::vector<Finding>
    run()
    {
        checkUnorderedIteration();
        checkWallClock();
        checkUnseededRng();
        checkRawThread();
        checkRawGetenv();
        checkRawOfstream();
        checkSharedPrng();
        checkDiscardedResult();
        checkUnclosedWriter();
        checkCheckMessage();
        for (const std::vector<Token> *toks :
             {&toks_, &file_.directiveTokens}) {
            checkRawPow(*toks);
            checkFloat(*toks);
            checkUnitParam(*toks);
        }
        checkHeaderGuard();
        checkIncludeOrder();
        checkFormat();
        std::erase_if(findings_, [&](const Finding &finding) {
            return inlineSuppressed(finding, file_.okLines);
        });
        return std::move(findings_);
    }

  private:
    void
    add(int line, const std::string &rule,
        const std::string &message)
    {
        findings_.push_back({relpath_, line, rule, message});
    }

    bool
    inCategory(std::initializer_list<const char *> cats) const
    {
        for (const char *cat : cats)
            if (category_ == cat)
                return true;
        return false;
    }

    bool
    pathIsOneOf(std::initializer_list<const char *> paths) const
    {
        for (const char *path : paths)
            if (relpath_ == path)
                return true;
        return false;
    }

    /** Sink words visible in this file: sink types, sink calls,
     *  variables declared with a sink type, and per-file
     *  mnoc-analyze-sink annotations. */
    std::set<std::string>
    sinkWords() const
    {
        std::set<std::string> out(kSinkTypes);
        out.insert(kSinkCalls.begin(), kSinkCalls.end());
        out.insert(file_.fileSinks.begin(), file_.fileSinks.end());
        for (const auto &[name, decls] :
             declaredNames(toks_, kSinkTypes))
            out.insert(name);
        return out;
    }

    /** First sink identifier inside [first, last), or "" . */
    std::string
    findSink(std::size_t first, std::size_t last,
             const std::set<std::string> &sinks) const
    {
        for (std::size_t i = first;
             i < last && i < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Identifier)
                continue;
            if (sinks.count(toks_[i].text) > 0 ||
                sinks.count(lastSegment(toks_[i].text)) > 0)
                return toks_[i].text;
        }
        return std::string();
    }

    void
    checkUnorderedIteration()
    {
        if (!inCategory({"src", "tools", "bench"}))
            return;
        auto unordered = declaredNames(toks_, kUnorderedTypes);
        std::set<std::string> sinks = sinkWords();

        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Identifier ||
                toks_[i].text != "for" ||
                !isPunct(toks_[i + 1], '('))
                continue;
            std::size_t close =
                matchForward(toks_, i + 1, '(', ')');
            if (close == kNpos)
                continue;

            // Range-for: the range expression after the ':' at
            // paren depth 1; classic for: the whole control clause
            // (catches `it = m.begin()` iterator loops).
            std::size_t range_first = i + 2;
            int depth = 0;
            for (std::size_t k = i + 1; k < close; ++k) {
                if (isPunct(toks_[k], '('))
                    ++depth;
                else if (isPunct(toks_[k], ')'))
                    --depth;
                else if (depth == 1 && isPunct(toks_[k], ':')) {
                    range_first = k + 1;
                    break;
                }
            }

            std::string container;
            for (std::size_t k = range_first;
                 k < close && container.empty(); ++k) {
                if (toks_[k].kind != TokKind::Identifier)
                    continue;
                if (unordered.count(toks_[k].text) > 0)
                    container = toks_[k].text;
                for (const std::string &type : kUnorderedTypes)
                    if (endsWithWord(toks_[k].text, type))
                        container = toks_[k].text;
            }
            if (container.empty())
                continue;

            auto [first, last] = bodyRange(toks_, close + 1);
            if (first == kNpos)
                continue;
            std::string sink = findSink(first, last, sinks);
            if (sink.empty())
                continue;
            add(toks_[i].line, "unordered-iteration",
                "iteration over unordered container '" + container +
                    "' reaches serialization sink '" + sink +
                    "'; unordered iteration order leaks into "
                    "output -- traverse a sorted view instead");
        }
    }

    void
    checkWallClock()
    {
        if (!inCategory({"src", "tools"}))
            return;
        if (pathIsOneOf({"src/common/trace_span.cc",
                         "src/common/trace_span.hh",
                         "src/common/manifest.cc"}))
            return;
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token &tok = toks_[i];
            if (tok.kind != TokKind::Identifier)
                continue;
            bool chrono_now =
                tok.text.compare(0, 13, "std::chrono::") == 0 &&
                endsWithWord(tok.text, "now");
            bool c_clock = false;
            if ((tok.text == "time" || tok.text == "std::time" ||
                 tok.text == "clock" ||
                 tok.text == "std::clock") &&
                i + 1 < toks_.size() &&
                isPunct(toks_[i + 1], '(')) {
                // Skip member calls: obj.time(...) is not libc.
                c_clock = i == 0 || (!isPunct(toks_[i - 1], '.') &&
                                     !isPunct(toks_[i - 1], '>'));
            }
            bool posix_clock = tok.text == "gettimeofday" ||
                               tok.text == "clock_gettime" ||
                               tok.text == "localtime" ||
                               tok.text == "gmtime";
            if (chrono_now || c_clock || posix_clock)
                add(tok.line, "wall-clock",
                    "'" + tok.text +
                        "' reads the wall clock in a result path; "
                        "only trace_span/manifest may observe time "
                        "(DESIGN.md §10)");
        }
    }

    void
    checkUnseededRng()
    {
        if (pathIsOneOf({"src/common/prng.hh"}))
            return;
        for (const Token &tok : toks_) {
            if (tok.kind != TokKind::Identifier)
                continue;
            if (kStdRng.count(tok.text) > 0)
                add(tok.line, "unseeded-rng",
                    "'" + tok.text +
                        "' bypasses the seeded Prng in "
                        "common/prng.hh; draws must be "
                        "reproducible");
        }
    }

    void
    checkRawThread()
    {
        if (pathIsOneOf({"src/common/thread_pool.hh",
                         "src/common/thread_pool.cc",
                         "tests/test_thread_pool.cc"}))
            return;
        for (const Token &tok : toks_) {
            if (tok.kind != TokKind::Identifier)
                continue;
            bool hit =
                tok.text == "std::thread" ||
                tok.text.compare(0, 13, "std::thread::") == 0 ||
                tok.text == "std::jthread" ||
                tok.text == "std::async";
            if (hit)
                add(tok.line, "raw-thread",
                    "'" + tok.text +
                        "' bypasses the shared ThreadPool in "
                        "common/thread_pool.hh; raw threads break "
                        "the deterministic-parallelism contract "
                        "(DESIGN.md §9)");
        }
    }

    void
    checkRawGetenv()
    {
        if (category_ == "tests" ||
            pathIsOneOf({"src/common/knobs.cc"}))
            return;
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            std::string callee = lastSegment(toks_[i].text);
            if (toks_[i].kind == TokKind::Identifier &&
                (callee == "getenv" || callee == "secure_getenv") &&
                isPunct(toks_[i + 1], '('))
                add(toks_[i].line, "raw-getenv",
                    "'" + toks_[i].text +
                        "' reads the environment outside the knob "
                        "table; use readKnob() from common/knobs.hh "
                        "so the value is strictly parsed, classified "
                        "and stamped");
        }
    }

    void
    checkRawOfstream()
    {
        if (category_ == "tests" ||
            pathIsOneOf({"src/common/io.hh", "src/common/io.cc"}))
            return;
        for (const Token &tok : toks_)
            if (tok.kind == TokKind::Identifier &&
                tok.text == "std::ofstream")
                add(tok.line, "raw-ofstream",
                    "raw std::ofstream drops write errors; use "
                    "FileWriter from common/io.hh");
    }

    void
    checkSharedPrng()
    {
        if (!inCategory({"src", "tools", "bench"}))
            return;
        auto prngs = declaredNames(
            toks_, std::set<std::string>{"Prng", "mnoc::Prng"});
        if (prngs.empty())
            return;

        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Identifier)
                continue;
            if (lastSegment(toks_[i].text) != "parallelFor" ||
                !isPunct(toks_[i + 1], '('))
                continue;
            std::size_t close =
                matchForward(toks_, i + 1, '(', ')');
            if (close == kNpos)
                continue;
            scanLambdas(i + 2, close, prngs);
        }
    }

    /** Flag by-reference Prng captures in lambdas found inside the
     *  token range [first, last) of a parallelFor argument list. */
    void
    scanLambdas(
        std::size_t first, std::size_t last,
        const std::map<std::string, std::vector<std::size_t>>
            &prngs)
    {
        for (std::size_t i = first; i < last; ++i) {
            if (!isPunct(toks_[i], '['))
                continue;
            // A capture list follows '(' ',' or an operator, never
            // an identifier or a closing bracket (array indexing).
            if (i > 0 && (toks_[i - 1].kind == TokKind::Identifier ||
                          isPunct(toks_[i - 1], ')') ||
                          isPunct(toks_[i - 1], ']')))
                continue;
            std::size_t cap_end = matchForward(toks_, i, '[', ']');
            if (cap_end == kNpos || cap_end > last)
                continue;

            bool ref_default = false;
            std::set<std::string> ref_names;
            for (std::size_t k = i + 1; k < cap_end; ++k) {
                if (!isPunct(toks_[k], '&'))
                    continue;
                if (k + 1 < cap_end &&
                    toks_[k + 1].kind == TokKind::Identifier)
                    ref_names.insert(toks_[k + 1].text);
                else
                    ref_default = true;
            }
            if (!ref_default && ref_names.empty())
                continue;

            // Body: optional parameter list, then the brace block.
            std::size_t j = cap_end + 1;
            if (j < toks_.size() && isPunct(toks_[j], '(')) {
                j = matchForward(toks_, j, '(', ')');
                if (j == kNpos)
                    continue;
                ++j;
            }
            while (j < toks_.size() && !isPunct(toks_[j], '{') &&
                   !isPunct(toks_[j], ';'))
                ++j;
            if (j >= toks_.size() || !isPunct(toks_[j], '{'))
                continue;
            std::size_t body_end =
                matchForward(toks_, j, '{', '}');
            if (body_end == kNpos)
                continue;

            for (const auto &[name, decls] : prngs) {
                bool inside = false;
                for (std::size_t at : decls)
                    inside = inside || (at > i && at < body_end);
                if (inside)
                    continue;
                bool captured = ref_default ||
                                ref_names.count(name) > 0;
                if (!captured)
                    continue;
                for (std::size_t k = j + 1; k < body_end; ++k) {
                    if (toks_[k].kind == TokKind::Identifier &&
                        toks_[k].text == name) {
                        add(toks_[i].line, "shared-prng",
                            "Prng '" + name +
                                "' is captured by reference into a "
                                "ThreadPool task; concurrent draws "
                                "make results schedule-dependent -- "
                                "fork a per-task stream with "
                                "deriveSeed (DESIGN.md §9)");
                        break;
                    }
                }
            }
        }
    }

    void
    checkDiscardedResult()
    {
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Identifier)
                continue;
            if (kMustUseCalls.count(lastSegment(toks_[i].text)) ==
                0)
                continue;
            if (!isPunct(toks_[i + 1], '('))
                continue;
            if (i > 0 && (isPunct(toks_[i - 1], '.') ||
                          isPunct(toks_[i - 1], '>')))
                continue;
            std::size_t close =
                matchForward(toks_, i + 1, '(', ')');
            if (close == kNpos || close + 1 >= toks_.size() ||
                !isPunct(toks_[close + 1], ';'))
                continue;
            bool statement =
                i == 0 || isPunct(toks_[i - 1], ';') ||
                isPunct(toks_[i - 1], '{') ||
                isPunct(toks_[i - 1], '}') ||
                isPunct(toks_[i - 1], ')') ||
                (toks_[i - 1].kind == TokKind::Identifier &&
                 (toks_[i - 1].text == "else" ||
                  toks_[i - 1].text == "do"));
            if (statement)
                add(toks_[i].line, "discarded-result",
                    "result of '" + lastSegment(toks_[i].text) +
                        "' is discarded; the call exists only for "
                        "its return value");
        }
    }

    void
    checkUnclosedWriter()
    {
        if (category_ == "tests" ||
            pathIsOneOf({"src/common/io.hh", "src/common/io.cc"}))
            return;
        for (std::size_t i = 0; i + 2 < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Identifier ||
                !endsWithWord(toks_[i].text, "FileWriter"))
                continue;
            const Token &name = toks_[i + 1];
            if (name.kind != TokKind::Identifier ||
                (!isPunct(toks_[i + 2], '(') &&
                 !isPunct(toks_[i + 2], '{')))
                continue;
            bool closed = false;
            for (std::size_t k = 0; k + 2 < toks_.size(); ++k)
                if (toks_[k].kind == TokKind::Identifier &&
                    toks_[k].text == name.text &&
                    isPunct(toks_[k + 1], '.') &&
                    toks_[k + 2].text == "close") {
                    closed = true;
                    break;
                }
            if (!closed)
                add(name.line, "unclosed-writer",
                    "FileWriter '" + name.text +
                        "' is never close()d; its destructor only "
                        "warn()s, so a full disk would truncate "
                        "the artifact silently");
        }
    }

    /** panicIf/fatalIf build their message before testing the
     *  condition, so anything but a literal (adjacent literals
     *  concatenate) costs the passing check; log.hh declares them. */
    void
    checkCheckMessage()
    {
        if (pathIsOneOf({"src/common/log.hh"}))
            return;
        for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
            if (toks_[i].kind != TokKind::Identifier)
                continue;
            std::string callee = lastSegment(toks_[i].text);
            if ((callee != "panicIf" && callee != "fatalIf") ||
                !isPunct(toks_[i + 1], '('))
                continue;
            std::size_t close =
                matchForward(toks_, i + 1, '(', ')');
            if (close == kNpos)
                continue;
            // The message is everything after the last top-level
            // comma.
            std::size_t comma = kNpos;
            int depth = 0;
            for (std::size_t k = i + 2; k < close; ++k) {
                if (isPunct(toks_[k], '(') || isPunct(toks_[k], '[') ||
                    isPunct(toks_[k], '{'))
                    ++depth;
                else if (isPunct(toks_[k], ')') ||
                         isPunct(toks_[k], ']') ||
                         isPunct(toks_[k], '}'))
                    --depth;
                else if (depth == 0 && isPunct(toks_[k], ','))
                    comma = k;
            }
            bool literal = comma != kNpos && comma + 1 < close;
            for (std::size_t k = comma + 1; literal && k < close; ++k)
                literal = toks_[k].kind == TokKind::String;
            if (!literal)
                add(toks_[i].line, "check-message",
                    "message of '" + callee +
                        "' is not a string literal, so it is built "
                        "even when the check passes; write `if "
                        "(cond) " +
                        callee.substr(0, 5) +
                        "(...)` to compose it only on failure");
        }
    }

    /** pow(10, x): the dB <-> linear conversion only units.hh may
     *  spell out; a base of 10, 10. or 10.0 counts. */
    void
    checkRawPow(const std::vector<Token> &toks)
    {
        if (pathIsOneOf({"src/common/units.hh"}))
            return;
        for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
            const std::string &base = toks[i + 2].text;
            bool ten =
                toks[i + 2].kind == TokKind::Number &&
                (base == "10" ||
                 (base.starts_with("10.") &&
                  base.find_first_not_of('0', 3) == std::string::npos));
            if (toks[i].kind == TokKind::Identifier &&
                lastSegment(toks[i].text) == "pow" &&
                isPunct(toks[i + 1], '(') && ten &&
                isPunct(toks[i + 3], ','))
                add(toks[i].line, "raw-pow",
                    "raw pow(10, ...) conversion; use "
                    "DecibelLoss::toTransmission()/toAttenuation() "
                    "from common/units.hh");
        }
    }

    void
    checkFloat(const std::vector<Token> &toks)
    {
        bool power_math = std::any_of(
            std::begin(kFloatDirs), std::end(kFloatDirs),
            [&](const char *dir) { return relpath_.starts_with(dir); });
        if (!power_math ||
            (!relpath_.ends_with(".cc") && !relpath_.ends_with(".hh")))
            return;
        for (const Token &tok : toks)
            if (tok.kind == TokKind::Identifier && tok.text == "float")
                add(tok.line, "float",
                    "power math is double-only; float loses "
                    "precision on accumulated dB/watt terms");
    }

    /** `double x_db` in a src/ header: the name carries the unit the
     *  type should; one finding per line, naming the first. */
    void
    checkUnitParam(const std::vector<Token> &toks)
    {
        if (!relpath_.starts_with("src/") || !relpath_.ends_with(".hh"))
            return;
        int last_line = 0;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            const std::string &name = toks[i + 1].text;
            std::size_t underscore = name.rfind('_');
            if (toks[i].kind != TokKind::Identifier ||
                toks[i].text != "double" ||
                toks[i + 1].kind != TokKind::Identifier ||
                name.find(':') != std::string::npos ||
                underscore == std::string::npos ||
                kUnitSuffixes.count(name.substr(underscore + 1)) == 0 ||
                toks[i].line == last_line)
                continue;
            last_line = toks[i].line;
            add(last_line, "unit-param",
                "'double " + name +
                    "' carries a unit in its name; use "
                    "DecibelLoss/WattPower/Meters so the type "
                    "carries the unit");
        }
    }

    void
    checkHeaderGuard()
    {
        if (!relpath_.ends_with(".hh"))
            return;
        std::string guard = expectedGuard(relpath_);
        std::string ifndef = "#ifndef " + guard;
        std::string define = "#define " + guard;
        std::string endif = "#endif // " + guard;
        auto at = std::find(lines_.begin(), lines_.end(), ifndef);
        if (at == lines_.end()) {
            add(1, "header-guard", "missing '" + ifndef + "'");
            return;
        }
        if (at + 1 == lines_.end() || at[1] != define)
            add(static_cast<int>(at - lines_.begin()) + 2,
                "header-guard",
                "'" + ifndef + "' not followed by '" + define + "'");
        auto last = std::find_if_not(lines_.rbegin(), lines_.rend(),
                                     isBlank);
        if (last == lines_.rend() || *last != endif)
            add(static_cast<int>(lines_.size()), "header-guard",
                "file must end with '" + endif + "'");
    }

    /** Own header first (in a .cc), then blank-line-separated
     *  blocks: <system> blocks before "project" blocks, each block
     *  one kind and sorted. */
    void
    checkIncludeOrder()
    {
        const std::vector<IncludeDirective> &incs = file_.includes;
        if (incs.empty())
            return;
        // The line above an include is lines_[line - 2]; on line 1
        // the index wraps past lines_.size().
        auto blankBefore = [&](const IncludeDirective &inc) {
            std::size_t above = static_cast<std::size_t>(inc.line) - 2;
            return above < lines_.size() && isBlank(lines_[above]);
        };

        std::size_t start = 0;
        if (relpath_.ends_with(".cc")) {
            std::string own =
                relpath_.substr(0, relpath_.size() - 3) + ".hh";
            if (own.starts_with("src/"))
                own.erase(0, 4);
            bool has_own = std::any_of(
                incs.begin(), incs.end(),
                [&](const IncludeDirective &inc) {
                    return !inc.angled && inc.target == own;
                });
            // A lone quoted include at the top is the primary header
            // -- the header this file implements (gem5 style; it may
            // be shared by several .cc files, e.g.
            // workloads/splash.hh).
            bool lone_primary =
                !incs[0].angled &&
                (incs.size() == 1 || blankBefore(incs[1]));
            if (has_own && (incs[0].angled || incs[0].target != own))
                add(incs[0].line, "include-order",
                    "own header \"" + own +
                        "\" must be the first include");
            if (has_own || lone_primary)
                start = 1;
        }

        bool seen_project = false;
        for (std::size_t first = start, end = start; first < incs.size();
             first = end) {
            end = first + 1;
            while (end < incs.size() && !blankBefore(incs[end]))
                ++end;
            const IncludeDirective &head = incs[first];
            bool mixed = false;
            std::vector<std::string> targets;
            for (std::size_t k = first; k < end; ++k) {
                mixed = mixed || incs[k].angled != head.angled;
                targets.push_back(incs[k].target);
            }
            if (mixed) {
                add(head.line, "include-order",
                    "mixed <system> and \"project\" includes in one "
                    "block; separate them with a blank line");
                continue;
            }
            if (!head.angled)
                seen_project = true;
            else if (seen_project)
                add(head.line, "include-order",
                    "<system> include block after a \"project\" "
                    "block; system includes come first");
            if (!std::is_sorted(targets.begin(), targets.end())) {
                std::string list;
                for (const std::string &target : targets)
                    list += (list.empty() ? "" : ", ") + target;
                add(head.line, "include-order",
                    "includes within a block must be sorted: " + list);
            }
        }
    }

    void
    checkFormat()
    {
        for (std::size_t k = 0; k < lines_.size(); ++k) {
            std::string_view text = lines_[k];
            int line = static_cast<int>(k) + 1;
            if (text.find('\t') != std::string_view::npos)
                add(line, "format", "tab character");
            if (!text.empty() && kSpace.find(text.back()) != kSpace.npos)
                add(line, "format", "trailing whitespace");
            if (std::size_t cols = columns(text); cols > kMaxLine)
                add(line, "format",
                    "line is " + std::to_string(cols) +
                        " columns (max " + std::to_string(kMaxLine) +
                        ")");
        }
    }

    std::string relpath_;
    const LexedFile &file_;
    const std::vector<Token> &toks_;
    std::vector<std::string_view> lines_;
    std::string category_;
    std::vector<Finding> findings_;
};

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    return kCatalog;
}

const RuleInfo *
findRule(const std::string &rule)
{
    for (const RuleInfo &info : kCatalog)
        if (rule == info.id)
            return &info;
    return nullptr;
}

bool
inlineSuppressed(const Finding &finding,
                 const std::map<int, std::set<std::string>> &okLines)
{
    for (int line : {finding.line, finding.line - 1}) {
        auto it = okLines.find(line);
        if (it != okLines.end() && (it->second.count(finding.rule) > 0 ||
                                    it->second.count("*") > 0))
            return true;
    }
    return false;
}

bool
operator<(const Finding &a, const Finding &b)
{
    return std::tie(a.path, a.line, a.rule, a.message) <
           std::tie(b.path, b.line, b.rule, b.message);
}

bool
operator==(const Finding &a, const Finding &b)
{
    return std::tie(a.path, a.line, a.rule, a.message) ==
           std::tie(b.path, b.line, b.rule, b.message);
}

std::vector<Finding>
runFileRules(const std::string &relpath, const std::string &text,
             const LexedFile &file)
{
    return FileChecker(relpath, text, file).run();
}

} // namespace mnoc::analyze
