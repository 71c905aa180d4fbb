/**
 * @file
 * Rule catalog and per-file rule engine of mnoc-analyze.
 *
 * Three rule families defend the repository's core guarantees:
 *
 *   determinism     parallel == serial bit-exactness of designs,
 *                   ledgers and reports at any MNOC_THREADS
 *                   (DESIGN.md §9): unordered-iteration, wall-clock,
 *                   unseeded-rng, shared-prng, raw-thread; and every
 *                   environment read goes through the knob table,
 *                   so result knobs are stamped: raw-getenv
 *   layering        the directed dependency order of the tree
 *                   (include_graph.hh): layering, include-cycle
 *   error-handling  fallible I/O must not fail silently:
 *                   discarded-result, unclosed-writer, raw-ofstream;
 *                   and a passing check must not build its message:
 *                   check-message
 *
 * and two families keep the tree in the shape the type system and
 * clang-format expect:
 *
 *   unit-safety     dB/watt math stays inside the strong types of
 *                   common/units.hh: raw-pow, float, unit-param
 *   layout          header-guard, include-order, format (the
 *                   whitespace subset of .clang-format)
 *
 * Every finding is reported as `path:line: [rule] message`; a
 * `// mnoc-analyze-ok(rule)` comment on the finding line or the
 * line above suppresses it at the source, and tools/analyze/
 * baseline.txt suppresses known findings per (path, rule) pair.
 */

#ifndef MNOC_TOOLS_ANALYZE_RULES_HH
#define MNOC_TOOLS_ANALYZE_RULES_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/lexer.hh"

namespace mnoc::analyze {

/** Static description of one rule (drives SARIF rule metadata). */
struct RuleInfo
{
    const char *id;
    const char *family;   ///< determinism | layering |
                          ///< error-handling | unit-safety | layout
    const char *level;    ///< SARIF level: "error" or "warning"
    const char *summary;  ///< one-line description
};

/** All rules, sorted by id. */
const std::vector<RuleInfo> &ruleCatalog();

/** Metadata for @p rule id (nullptr when unknown). */
const RuleInfo *findRule(const std::string &rule);

/** One reported violation. */
struct Finding
{
    std::string path; ///< root-relative file
    int line = 0;
    std::string rule;
    std::string message;
};

/** Order findings by (path, line, rule, message): the output
 *  contract that makes runs byte-identical at any thread count. */
bool operator<(const Finding &a, const Finding &b);
bool operator==(const Finding &a, const Finding &b);

/** True when a mnoc-analyze-ok comment in @p okLines (as lexed)
 *  names @p finding's rule or "*" on its line or the line above. */
bool inlineSuppressed(const Finding &finding,
                      const std::map<int, std::set<std::string>> &okLines);

/**
 * Run every file-local rule over one file: @p text is its contents
 * (the layout rules read its lines) and @p file its lexed form.
 * @p relpath decides rule applicability (tests are exempt from
 * writer rules, bench from wall-clock timing, and the choke-point
 * files that own a primitive are exempt from the rule that bans it
 * elsewhere).  Inline mnoc-analyze-ok suppressions are already
 * applied.
 */
std::vector<Finding> runFileRules(const std::string &relpath,
                                  const std::string &text,
                                  const LexedFile &file);

} // namespace mnoc::analyze

#endif // MNOC_TOOLS_ANALYZE_RULES_HH
