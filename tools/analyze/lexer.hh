/**
 * @file
 * Token-accurate C++ lexer for mnoc-analyze.
 *
 * Rules reason about a real token stream -- declarations, balanced
 * brackets and qualified names -- instead of raw text, so comments
 * and string literals never trip them.  Qualified identifiers are
 * merged into single tokens ("std::chrono::steady_clock::now" is one
 * identifier), which keeps the rule code free of :: bookkeeping.
 *
 * Comments are not discarded silently: the lexer collects the two
 * in-source annotations of the analyzer,
 *
 *   // mnoc-analyze-ok(rule[, rule...])   suppress findings on this
 *                                         line and the next
 *   // mnoc-analyze-sink(Name)            register Name as a
 *                                         serialization sink for
 *                                         this file
 *
 * and records #include directives (with line numbers) for the
 * include-graph and include-order passes.  The bodies of the other
 * directives (#define, #if, ...) are lexed into a stream of their
 * own, so a macro body is visible to the token rules without
 * joining the statements around it.
 */

#ifndef MNOC_TOOLS_ANALYZE_LEXER_HH
#define MNOC_TOOLS_ANALYZE_LEXER_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace mnoc::analyze {

/** Classification of one token. */
enum class TokKind
{
    Identifier, ///< identifier or keyword (possibly ::-qualified)
    Number,     ///< numeric literal (incl. digit separators)
    String,     ///< string literal (contents dropped)
    CharLit,    ///< character literal
    Punct,      ///< single punctuation character
};

/** One lexed token with its 1-based source line. */
struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    int line = 0;
};

/** One #include directive. */
struct IncludeDirective
{
    std::string target; ///< path between the delimiters
    bool angled = false; ///< <...> (true) vs "..." (false)
    int line = 0;
};

/** A fully lexed source file. */
struct LexedFile
{
    std::vector<Token> tokens;
    /** Tokens of non-include directives, keyword included. */
    std::vector<Token> directiveTokens;
    std::vector<IncludeDirective> includes;
    /** Rules suppressed per line by mnoc-analyze-ok comments ("*"
     *  suppresses every rule). */
    std::map<int, std::set<std::string>> okLines;
    /** Extra sink identifiers registered by mnoc-analyze-sink. */
    std::set<std::string> fileSinks;
};

/** Lex @p text (the full contents of one source file). */
LexedFile lexSource(const std::string &text);

} // namespace mnoc::analyze

#endif // MNOC_TOOLS_ANALYZE_LEXER_HH
