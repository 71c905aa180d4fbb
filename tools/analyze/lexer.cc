#include "tools/analyze/lexer.hh"

#include <cctype>

namespace mnoc::analyze {

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) != 0 ||
           c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
           c == '_';
}

bool
numberChar(char c)
{
    // Digit separators and exponent letters keep a literal like
    // 0x1p-3 or 1'000'000 in one token; the trailing sign of an
    // exponent is handled by the caller.
    return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
           c == '.' || c == '\'';
}

/** Collect the annotations carried by one comment. */
void
scanComment(const std::string &text, int line, LexedFile &out)
{
    auto names = [&](const std::string &marker,
                     std::vector<std::string> &list) {
        std::size_t at = text.find(marker);
        while (at != std::string::npos) {
            std::size_t open = at + marker.size();
            std::size_t close = text.find(')', open);
            if (close == std::string::npos)
                return;
            std::string inner = text.substr(open, close - open);
            std::string item;
            for (char c : inner + ",") {
                if (c == ',') {
                    if (!item.empty())
                        list.push_back(item);
                    item.clear();
                } else if (c != ' ' && c != '\t') {
                    item += c;
                }
            }
            at = text.find(marker, close);
        }
    };

    std::vector<std::string> ok;
    names("mnoc-analyze-ok(", ok);
    for (const std::string &rule : ok)
        out.okLines[line].insert(rule);

    std::vector<std::string> sinks;
    names("mnoc-analyze-sink(", sinks);
    for (const std::string &sink : sinks)
        out.fileSinks.insert(sink);
}

/**
 * Merge qualified names: Identifier :: Identifier (repeatedly)
 * becomes one identifier token, so rules match "std::thread" or
 * "std::chrono::steady_clock::now" directly.
 */
std::vector<Token>
mergeQualified(const std::vector<Token> &raw)
{
    std::vector<Token> out;
    out.reserve(raw.size());
    for (std::size_t k = 0; k < raw.size(); ++k) {
        Token tok = raw[k];
        if (tok.kind == TokKind::Identifier) {
            while (k + 3 < raw.size() &&
                   raw[k + 1].kind == TokKind::Punct &&
                   raw[k + 1].text == ":" &&
                   raw[k + 2].kind == TokKind::Punct &&
                   raw[k + 2].text == ":" &&
                   raw[k + 3].kind == TokKind::Identifier) {
                tok.text += "::" + raw[k + 3].text;
                k += 3;
            }
        }
        out.push_back(std::move(tok));
    }
    return out;
}

} // namespace

LexedFile
lexSource(const std::string &text)
{
    LexedFile out;
    std::vector<Token> code;
    std::vector<Token> directive;
    // Tokens go to `directive` from a non-include '#' to the end of
    // its logical line, and to `code` otherwise.
    std::vector<Token> *raw = &code;
    const std::size_t n = text.size();
    std::size_t i = 0;
    int line = 1;
    bool at_line_start = true;

    auto advanceNewline = [&](std::size_t pos) {
        if (text[pos] == '\n') {
            ++line;
            at_line_start = true;
            raw = &code;
        }
    };

    while (i < n) {
        char c = text[i];

        // Backslash-newline continuation.
        if (c == '\\' && i + 1 < n && text[i + 1] == '\n') {
            ++line;
            i += 2;
            continue;
        }
        if (c == '\n') {
            advanceNewline(i);
            ++i;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r' || c == '\v' ||
            c == '\f') {
            ++i;
            continue;
        }

        // Line comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            std::size_t start = i;
            int comment_line = line;
            i += 2;
            while (i < n && text[i] != '\n')
                ++i;
            scanComment(text.substr(start, i - start), comment_line,
                        out);
            continue;
        }
        // Block comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            std::size_t start = i;
            int comment_line = line;
            i += 2;
            while (i + 1 < n &&
                   !(text[i] == '*' && text[i + 1] == '/')) {
                advanceNewline(i);
                ++i;
            }
            i = i + 1 < n ? i + 2 : n;
            scanComment(text.substr(start, i - start), comment_line,
                        out);
            continue;
        }

        // Preprocessor directive: an #include is consumed as one
        // logical line and kept as its target; any other directive
        // is lexed into the directive stream.
        if (c == '#' && at_line_start) {
            std::size_t at = text.find_first_not_of(" \t", i + 1);
            if (at == std::string::npos ||
                text.compare(at, 7, "include") != 0) {
                raw = &directive;
                at_line_start = false;
                ++i;
                continue;
            }
            int directive_line = line;
            std::string logical;
            while (i < n) {
                if (text[i] == '\\' && i + 1 < n &&
                    text[i + 1] == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                if (text[i] == '\n')
                    break;
                logical += text[i];
                ++i;
            }
            std::size_t open = logical.find_first_of("<\"");
            if (open != std::string::npos) {
                char closer = logical[open] == '<' ? '>' : '"';
                std::size_t close = logical.find(closer, open + 1);
                if (close != std::string::npos)
                    out.includes.push_back(
                        {logical.substr(open + 1, close - open - 1),
                         logical[open] == '<', directive_line});
            }
            continue;
        }

        at_line_start = false;

        // String literal (incl. raw strings).
        if (c == '"') {
            bool is_raw =
                !raw->empty() &&
                raw->back().kind == TokKind::Identifier &&
                raw->back().text.back() == 'R';
            int tok_line = line;
            ++i;
            if (is_raw) {
                std::string delim;
                while (i < n && text[i] != '(')
                    delim += text[i++];
                std::string closer = ")" + delim + "\"";
                std::size_t end = text.find(closer, i);
                if (end == std::string::npos) {
                    i = n;
                } else {
                    for (std::size_t k = i; k < end; ++k)
                        advanceNewline(k);
                    i = end + closer.size();
                }
            } else {
                while (i < n && text[i] != '"') {
                    if (text[i] == '\\' && i + 1 < n)
                        ++i;
                    ++i;
                }
                if (i < n)
                    ++i;
            }
            raw->push_back({TokKind::String, "\"\"", tok_line});
            continue;
        }
        // Character literal (not a digit separator: separators are
        // consumed inside number literals below).
        if (c == '\'') {
            int tok_line = line;
            ++i;
            while (i < n && text[i] != '\'') {
                if (text[i] == '\\' && i + 1 < n)
                    ++i;
                ++i;
            }
            if (i < n)
                ++i;
            raw->push_back({TokKind::CharLit, "''", tok_line});
            continue;
        }

        if (identStart(c)) {
            std::size_t start = i;
            while (i < n && identChar(text[i]))
                ++i;
            raw->push_back({TokKind::Identifier,
                            text.substr(start, i - start), line});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(text[i + 1])) !=
                 0)) {
            std::size_t start = i;
            while (i < n && numberChar(text[i])) {
                char cur = text[i];
                ++i;
                // Exponent sign: 1e-3, 0x1p+4.
                if ((cur == 'e' || cur == 'E' || cur == 'p' ||
                     cur == 'P') &&
                    i < n && (text[i] == '+' || text[i] == '-'))
                    ++i;
            }
            raw->push_back({TokKind::Number,
                            text.substr(start, i - start), line});
            continue;
        }

        raw->push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }

    out.tokens = mergeQualified(code);
    out.directiveTokens = mergeQualified(directive);
    return out;
}

} // namespace mnoc::analyze
