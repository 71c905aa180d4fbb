#include "tools/analyze/analyzer.hh"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <map>
#include <sstream>
#include <tuple>

#include "common/io.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "tools/analyze/compile_db.hh"
#include "tools/analyze/include_graph.hh"

namespace mnoc::analyze {

namespace {

namespace fs = std::filesystem;

/** Root-relative form of @p abs, or "" when outside @p root. */
std::string
rootRelative(const fs::path &root, const std::string &abs)
{
    std::string rel = fs::path(abs)
                          .lexically_normal()
                          .lexically_relative(root)
                          .generic_string();
    if (rel.empty() || rel == "." || rel.compare(0, 2, "..") == 0)
        return std::string();
    return rel;
}

std::string
trim(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t");
    if (first == std::string::npos)
        return std::string();
    std::size_t last = text.find_last_not_of(" \t");
    return text.substr(first, last - first + 1);
}

/** Per-file slot filled by one parallelFor iteration. */
struct FileSlot
{
    std::vector<Finding> findings;
    std::vector<IncludeDirective> includes;
    std::map<int, std::set<std::string>> okLines;
};

} // namespace

Baseline
loadBaseline(const std::string &path)
{
    std::istringstream in(readWholeFile(path, "baseline"));

    Baseline out;
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        std::string line = raw;
        if (std::size_t hash = line.find('#');
            hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        std::size_t open = line.rfind('[');
        if (open == std::string::npos || open == 0 || line.back() != ']')
            fatal(path + ":" + std::to_string(lineno) +
                  ": baseline lines read 'path [rule]'");
        std::string file = trim(line.substr(0, open));
        std::string rule =
            line.substr(open + 1, line.size() - open - 2);
        if (file.empty())
            fatal(path + ":" + std::to_string(lineno) +
                  ": baseline lines read 'path [rule]'");
        if (findRule(rule) == nullptr)
            fatal(path + ":" + std::to_string(lineno) + ": unknown rule '" +
                  rule + "'");
        out.emplace(file, rule);
    }
    return out;
}

AnalysisResult
runAnalysis(const AnalyzerConfig &config)
{
    const fs::path root = fs::path(config.root).lexically_normal();
    const std::string root_str = root.generic_string();

    std::vector<std::string> search_dirs;
    std::map<std::string, std::string> initial; // rel -> abs

    if (!config.compileDb.empty()) {
        for (const CompileCommand &cmd :
             loadCompileDb(config.compileDb)) {
            for (const std::string &dir : cmd.includeDirs)
                search_dirs.push_back(dir);
            std::string rel = rootRelative(root, cmd.file);
            if (!rel.empty() && inProjectTree(rel))
                initial[rel] = fs::path(cmd.file)
                                   .lexically_normal()
                                   .generic_string();
        }
    }
    for (const std::string &file : config.files) {
        std::string abs =
            fs::absolute(file).lexically_normal().generic_string();
        std::string rel = rootRelative(root, abs);
        if (rel.empty())
            fatal("file lies outside the analysis root: " + file);
        initial[rel] = abs;
    }
    fatalIf(initial.empty(),
            "nothing to analyze: pass --compile-commands or "
            "explicit files");
    std::sort(search_dirs.begin(), search_dirs.end());
    search_dirs.erase(
        std::unique(search_dirs.begin(), search_dirs.end()),
        search_dirs.end());

    AnalysisResult result;
    std::vector<Finding> findings;
    std::vector<IncludeEdge> edges;
    std::map<std::string, std::map<int, std::set<std::string>>>
        ok_by_file;
    std::set<std::string> seen;
    std::vector<std::pair<std::string, std::string>> pending(
        initial.begin(), initial.end());
    for (const auto &[rel, abs] : pending)
        seen.insert(rel);

    // Worklist rounds: analyze the batch in parallel, merge slots
    // in index order, then queue headers the batch discovered.
    while (!pending.empty()) {
        std::vector<FileSlot> slots(pending.size());
        ThreadPool::global().parallelFor(
            static_cast<long long>(pending.size()),
            [&](long long i) {
                const auto &[rel, abs] =
                    pending[static_cast<std::size_t>(i)];
                std::string text = readWholeFile(abs, "source");
                LexedFile lexed = lexSource(text);
                FileSlot &slot =
                    slots[static_cast<std::size_t>(i)];
                slot.findings = runFileRules(rel, text, lexed);
                slot.includes = std::move(lexed.includes);
                slot.okLines = std::move(lexed.okLines);
            });

        std::vector<std::pair<std::string, std::string>> next;
        for (std::size_t i = 0; i < pending.size(); ++i) {
            const std::string &rel = pending[i].first;
            FileSlot &slot = slots[i];
            ++result.filesAnalyzed;
            findings.insert(findings.end(),
                            slot.findings.begin(),
                            slot.findings.end());
            if (!slot.okLines.empty())
                ok_by_file[rel] = std::move(slot.okLines);
            for (const IncludeDirective &inc : slot.includes) {
                std::string to = resolveInclude(
                    root_str, rel, inc.target, search_dirs);
                if (to.empty())
                    continue;
                edges.push_back({rel, to, inc.line});
                if (seen.insert(to).second)
                    next.emplace_back(
                        to, (root / to).generic_string());
            }
        }
        std::sort(next.begin(), next.end());
        pending = std::move(next);
    }

    std::sort(edges.begin(), edges.end(),
              [](const IncludeEdge &a, const IncludeEdge &b) {
                  return std::tie(a.from, a.to, a.line) <
                         std::tie(b.from, b.to, b.line);
              });
    for (const Finding &finding : checkLayering(edges))
        if (!inlineSuppressed(finding, ok_by_file[finding.path]))
            findings.push_back(finding);

    std::sort(findings.begin(), findings.end());
    findings.erase(
        std::unique(findings.begin(), findings.end()),
        findings.end());

    Baseline baseline;
    if (!config.baselinePath.empty())
        baseline = loadBaseline(config.baselinePath);
    for (Finding &finding : findings) {
        if (baseline.count({finding.path, finding.rule}) > 0)
            ++result.baselined;
        else
            result.findings.push_back(std::move(finding));
    }
    return result;
}

} // namespace mnoc::analyze
