/**
 * @file
 * caba-lint CLI. Exit codes: 0 = no findings, 1 = any finding, 2 =
 * usage or I/O error. Unknown or malformed flags are hard errors — a
 * typoed --rule silently linting nothing would defeat the gate.
 *
 *   caba-lint --root . --json=report.json
 *   caba-lint --rule layering --rule include-cycle --dot=includes.dot
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph.h"
#include "lint.h"

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: caba-lint [--root DIR] [--json[=PATH]] [--rule NAME]...\n"
        "                 [--list-rules] [--dot PATH]\n"
        "  --root DIR       repo root to scan (bench/, examples/, src/,\n"
        "                   tests/ and tools/; default .)\n"
        "  --json[=PATH]    write the caba-lint-v1 JSON report to PATH\n"
        "                   (stdout when no PATH; suppresses text output)\n"
        "  --rule NAME      run only the named rule (repeatable; see\n"
        "                   --list-rules)\n"
        "  --list-rules     print every rule id and exit\n"
        "  --dot PATH       also write the resolved include graph as\n"
        "                   GraphViz DOT to PATH\n");
    return 2;
}

bool
readWholeFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    bool emit_json = false;
    std::string json_path;
    std::string dot_path;
    caba::lint::Options opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--json") {
            emit_json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            emit_json = true;
            json_path = arg.substr(7);
        } else if (arg == "--list-rules") {
            for (const std::string &r : caba::lint::ruleNames())
                std::fprintf(stdout, "%s\n", r.c_str());
            return 0;
        } else if (arg == "--rule" && i + 1 < argc) {
            const std::string name = argv[++i];
            const auto &known = caba::lint::ruleNames();
            if (std::find(known.begin(), known.end(), name) == known.end()) {
                std::fprintf(stderr, "caba-lint: unknown rule '%s' "
                             "(--list-rules prints the valid ids)\n",
                             name.c_str());
                return usage();
            }
            opts.rules.insert(name);
        } else if (arg == "--dot" && i + 1 < argc) {
            dot_path = argv[++i];
        } else if (arg.rfind("--dot=", 0) == 0) {
            dot_path = arg.substr(6);
        } else {
            std::fprintf(stderr, "caba-lint: unknown or malformed "
                         "argument '%s'\n", arg.c_str());
            return usage();
        }
    }

    std::string error;
    std::vector<caba::lint::SourceFile> files;
    if (!caba::lint::collectTree(root, &files, &error)) {
        std::fprintf(stderr, "caba-lint: %s\n", error.c_str());
        return 2;
    }
    // env-drift direction 2 wants the README; absence just skips it.
    readWholeFile(root + "/README.md", &opts.readme_text);

    if (!dot_path.empty()) {
        const caba::lint::IncludeGraph graph =
            caba::lint::buildIncludeGraph(files);
        std::ofstream out(dot_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "caba-lint: cannot write %s\n",
                         dot_path.c_str());
            return 2;
        }
        out << caba::lint::toDot(graph);
    }

    const std::vector<caba::lint::Finding> findings =
        caba::lint::run(files, opts);

    if (emit_json) {
        const std::string doc = caba::lint::toJson(findings);
        if (json_path.empty()) {
            std::fputs(doc.c_str(), stdout);
        } else {
            std::ofstream out(json_path, std::ios::binary);
            if (!out) {
                std::fprintf(stderr, "caba-lint: cannot write %s\n",
                             json_path.c_str());
                return 2;
            }
            out << doc;
        }
    }
    if (!emit_json || !json_path.empty()) {
        std::fputs(caba::lint::toText(findings).c_str(), stdout);
        std::fprintf(stdout, "caba-lint: %zu finding(s)\n",
                     findings.size());
    }
    return findings.empty() ? 0 : 1;
}
