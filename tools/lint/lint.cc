/**
 * @file
 * Tree walking and report rendering for caba-lint.
 * Everything here is deterministic: files are visited in sorted
 * repo-relative path order, findings are sorted, and the JSON report is
 * emitted with the same JsonWriter the benches use — two runs over the
 * same tree are byte-identical.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "lint.h"

namespace caba {
namespace lint {

namespace {

namespace fs = std::filesystem;

/** Rule ids in fixed report order. */
const char *const kRules[] = {
    "determinism", "iteration-order", "env-access", "check-discipline",
    "stat-hygiene", "experiment-registry", "include-cycle", "layering",
    "env-drift", "stat-drift", "lock-discipline",
};

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

bool
readFile(const fs::path &p, std::string *out, std::string *error)
{
    std::ifstream in(p, std::ios::binary);
    if (!in) {
        *error = "cannot open " + p.string();
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

} // namespace

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> names(std::begin(kRules),
                                                std::end(kRules));
    return names;
}

bool
collectTree(const std::string &root, std::vector<SourceFile> *files,
            std::string *error)
{
    const fs::path base(root);
    std::vector<std::string> rel_paths;
    for (const char *top : {"bench", "examples", "src", "tests", "tools"}) {
        const fs::path dir = base / top;
        if (!fs::exists(dir)) {
            *error = "missing directory " + dir.string() +
                     " (is --root the repo root?)";
            return false;
        }
        for (const auto &entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file() ||
                !lintableExtension(entry.path()))
                continue;
            const std::string rel =
                entry.path().lexically_relative(base).generic_string();
            // The fixtures are deliberate violations for test_lint.
            if (rel.rfind("tools/lint/fixtures/", 0) == 0)
                continue;
            rel_paths.push_back(rel);
        }
    }
    std::sort(rel_paths.begin(), rel_paths.end());

    files->clear();
    files->reserve(rel_paths.size());
    for (const std::string &rel : rel_paths) {
        SourceFile f;
        f.path = rel;
        if (!readFile(base / rel, &f.text, error))
            return false;
        files->push_back(std::move(f));
    }
    return true;
}

bool
runTree(const std::string &root, Options opts, std::vector<Finding> *out,
        std::string *error)
{
    std::vector<SourceFile> files;
    if (!collectTree(root, &files, error))
        return false;
    if (opts.readme_text.empty()) {
        // Best-effort: a missing README just skips env-drift's
        // documentation direction.
        std::string readme, ignored;
        if (readFile(fs::path(root) / "README.md", &readme, &ignored))
            opts.readme_text = std::move(readme);
    }
    *out = run(files, opts);
    return true;
}

bool
runTree(const std::string &root, std::vector<Finding> *out,
        std::string *error)
{
    return runTree(root, Options(), out, error);
}

std::string
toText(const std::vector<Finding> &findings)
{
    std::ostringstream os;
    for (const Finding &f : findings)
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
    return os.str();
}

std::string
toJson(const std::vector<Finding> &findings)
{
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "caba-lint-v1");
    w.key("counts").beginObject();
    for (const char *rule : kRules) {
        std::uint64_t n = 0;
        for (const Finding &f : findings)
            if (f.rule == rule)
                ++n;
        w.kv(rule, n);
    }
    w.kv("total", static_cast<std::uint64_t>(findings.size()));
    w.endObject();
    w.key("findings").beginArray();
    for (const Finding &f : findings) {
        w.beginObject()
            .kv("rule", f.rule)
            .kv("file", f.file)
            .kv("line", static_cast<std::int64_t>(f.line))
            .kv("message", f.message)
            .endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

} // namespace lint
} // namespace caba
