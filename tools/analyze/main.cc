/**
 * @file
 * mnoc-analyze: compile_commands-driven static analysis of the
 * mnoc tree (determinism, layering, error-handling, unit-safety and
 * layout rule families).
 *
 *   mnoc-analyze --root DIR --compile-commands FILE
 *                [--baseline FILE] [--sarif OUT]
 *   mnoc-analyze --root DIR [FILE...]
 *
 * Findings print as `path:line: [rule] message`, sorted, and are
 * byte-identical at any MNOC_THREADS.  Exit status: 0 clean, 1 when
 * findings remain after baseline filtering, 2 on usage or I/O
 * errors.
 */

#include <filesystem>
#include <iostream>
#include <string>

#include "common/log.hh"
#include "tools/analyze/analyzer.hh"
#include "tools/analyze/sarif.hh"

namespace {

void
usage(std::ostream &os)
{
    os << "usage: mnoc-analyze [options] [FILE...]\n"
       << "  --root DIR              repository root (default .)\n"
       << "  --compile-commands FILE translation units + include\n"
       << "                          path from the compilation\n"
       << "                          database\n"
       << "  --baseline FILE         suppress known findings\n"
       << "                          ('path [rule]' per line)\n"
       << "  --sarif OUT             also write SARIF 2.1.0\n"
       << "  --list-rules            print the rule catalog\n"
       << "  FILE...                 analyze explicit files\n"
       << "                          (under --root) instead of the\n"
       << "                          database worklist\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mnoc;
    using namespace mnoc::analyze;

    AnalyzerConfig config;
    config.root = ".";
    std::string sarif_path;
    bool list_rules = false;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal(arg + " requires a value");
                return argv[++i];
            };
            if (arg == "--root") {
                config.root = value();
            } else if (arg == "--compile-commands") {
                config.compileDb = value();
            } else if (arg == "--baseline") {
                config.baselinePath = value();
            } else if (arg == "--sarif") {
                sarif_path = value();
            } else if (arg == "--list-rules") {
                list_rules = true;
            } else if (arg == "-h" || arg == "--help") {
                usage(std::cout);
                return 0;
            } else if (!arg.empty() && arg[0] == '-') {
                fatal("unknown option: " + arg +
                      " (try --help)");
            } else {
                config.files.push_back(arg);
            }
        }

        if (list_rules) {
            for (const RuleInfo &rule : ruleCatalog())
                std::cout << rule.id << " (" << rule.family
                          << ", " << rule.level
                          << "): " << rule.summary << "\n";
            return 0;
        }

        config.root = std::filesystem::absolute(config.root)
                          .lexically_normal()
                          .generic_string();

        AnalysisResult result = runAnalysis(config);
        for (const Finding &finding : result.findings)
            std::cout << finding.path << ":" << finding.line
                      << ": [" << finding.rule << "] "
                      << finding.message << "\n";
        if (!sarif_path.empty())
            writeSarif(sarif_path, result.findings);
        std::cerr << "mnoc-analyze: " << result.filesAnalyzed
                  << " file(s) analyzed, "
                  << result.findings.size() << " finding(s), "
                  << result.baselined << " baselined\n";
        return result.findings.empty() ? 0 : 1;
    } catch (const FatalError &err) {
        std::cerr << "mnoc-analyze: " << err.what() << "\n";
        return 2;
    }
}
