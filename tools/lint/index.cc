/**
 * @file
 * Cross-TU index construction and the three drift rules. The index is a
 * pure function of the lexed inputs, so unit tests can feed synthetic
 * registries/producers and the tree walk exercises the same code.
 */
#include <algorithm>
#include <cctype>

#include "index.h"

namespace caba {
namespace lint {

namespace {

const char *const kEnvRegistryPath = "src/common/env.cc";

bool
inSrc(const std::string &path)
{
    return path.rfind("src/", 0) == 0;
}

/** Entire literal matches CABA_[A-Z0-9_]+ (an env-knob-shaped name). */
bool
envShaped(const std::string &s)
{
    const std::string prefix = std::string("CABA") + "_";
    if (s.size() <= prefix.size() || s.rfind(prefix, 0) != 0)
        return false;
    for (std::size_t i = prefix.size(); i < s.size(); ++i) {
        const char c = s[i];
        if (!std::isupper(static_cast<unsigned char>(c)) &&
            !std::isdigit(static_cast<unsigned char>(c)) && c != '_')
            return false;
    }
    return true;
}

bool
isProduceMethod(const std::string &s)
{
    return s == "add" || s == "set" || s == "setCounter" || s == "dist";
}

bool
isConsumeMethod(const std::string &s)
{
    return s == "get" || s == "findDist" || s == "isGauge";
}

bool
isMutexType(const std::string &s)
{
    return s == "mutex" || s == "recursive_mutex" || s == "shared_mutex" ||
           s == "timed_mutex" || s == "recursive_timed_mutex" ||
           s == "shared_timed_mutex";
}

/** Index of the ')' matching the '(' at @p open, or npos. */
std::size_t
matchParen(const std::vector<Token> &t, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
        if (t[i].punct("("))
            ++depth;
        else if (t[i].punct(")") && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/** Adds the members of every all-string brace list in @p f to
 *  @p produced: name tables like kSlotStatNames are registered at
 *  runtime via a loop, so their literals are legitimate stat names. */
void
collectNameTables(const LexedFile &f, std::set<std::string> &produced)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].punct("{") || i + 1 >= t.size() ||
            t[i + 1].kind != Token::String)
            continue;
        std::vector<const std::string *> members;
        std::size_t j = i + 1;
        bool ok = false;
        while (j < t.size()) {
            if (t[j].kind != Token::String)
                break;
            members.push_back(&t[j].text);
            ++j;
            if (j < t.size() && t[j].punct(",")) {
                ++j;
                if (j < t.size() && t[j].punct("}")) {
                    ok = true; // trailing comma
                    break;
                }
                continue;
            }
            if (j < t.size() && t[j].punct("}"))
                ok = true;
            break;
        }
        if (ok)
            for (const std::string *m : members)
                produced.insert(*m);
    }
}

void
indexFile(const SourceFile &src, const LexedFile &f, IdentIndex &index)
{
    const std::string &path = src.path;
    const bool is_registry = path == kEnvRegistryPath;
    const auto &t = f.tokens;

    for (std::size_t i = 0; i < t.size(); ++i) {
        const Token &tok = t[i];

        // -- environment names --
        if (tok.kind == Token::String && envShaped(tok.text)) {
            if (is_registry)
                index.env_registered.push_back({path, tok.line, tok.text});
            else if (!f.annotated("not-env", tok.line))
                index.env_uses.push_back({path, tok.line, tok.text});
        }

        // -- stat produce/consume sites (member calls) --
        if ((tok.punct(".") || tok.punct("->")) && i + 3 < t.size()) {
            const Token &m = t[i + 1];
            if (m.kind == Token::Ident && t[i + 2].punct("(") &&
                t[i + 3].kind == Token::String) {
                if (isProduceMethod(m.text))
                    index.stat_produced.insert(t[i + 3].text);
                else if (isConsumeMethod(m.text) &&
                         !f.annotated("stat-external", t[i + 3].line))
                    index.stat_consumed.push_back(
                        {path, t[i + 3].line, t[i + 3].text});
            }
            // ratio("num", "den"): both arguments are stat reads.
            if (m.ident("ratio") && i + 2 < t.size() && t[i + 2].punct("(")) {
                for (std::size_t j = i + 3;
                     j + 1 < t.size() && j < i + 8; ++j) {
                    if (t[j].kind == Token::String &&
                        (t[j + 1].punct(",") || t[j + 1].punct(")")) &&
                        !f.annotated("stat-external", t[j].line))
                        index.stat_consumed.push_back(
                            {path, t[j].line, t[j].text});
                    if (t[j].punct(")"))
                        break;
                }
            }
        }

        // -- merge prefixes --
        if (tok.kind == Token::Ident &&
            (tok.text == "mergePrefixed" || tok.text == "merge_prefixed") &&
            i + 1 < t.size() && t[i + 1].punct("(")) {
            const std::size_t close = matchParen(t, i + 1);
            if (close == std::string::npos)
                continue;
            int depth = 0;
            std::size_t arg_start = std::string::npos;
            for (std::size_t j = i + 2; j < close; ++j) {
                if (t[j].punct("(") || t[j].punct("[") || t[j].punct("{") ||
                    t[j].punct("<"))
                    ++depth;
                else if (t[j].punct(")") || t[j].punct("]") ||
                         t[j].punct("}") || t[j].punct(">"))
                    --depth;
                else if (depth == 0 && t[j].punct(",")) {
                    arg_start = j + 1;
                    break;
                }
            }
            if (arg_start != std::string::npos &&
                t[arg_start].kind == Token::String && arg_start + 1 == close)
                index.merge_prefixes.insert(t[arg_start].text);
        }

        // -- mutex-typed declarations --
        if (tok.kind == Token::Ident && isMutexType(tok.text) &&
            i + 1 < t.size()) {
            std::size_t j = i + 1;
            while (j < t.size() &&
                   (t[j].punct("&") || t[j].punct("*") || t[j].ident("const")))
                ++j;
            if (j < t.size() && t[j].kind == Token::Ident &&
                (j + 1 >= t.size() || t[j + 1].punct(";") ||
                 t[j + 1].punct(",") || t[j + 1].punct(")") ||
                 t[j + 1].punct("{") || t[j + 1].punct("=")))
                index.mutex_names.insert(t[j].text);
        }
    }

    if (inSrc(path))
        collectNameTables(f, index.stat_produced);
}

} // namespace

IdentIndex
buildIndex(const std::vector<SourceFile> &files,
           const std::vector<LexedFile> &lexed)
{
    IdentIndex index;
    index.merge_prefixes.insert(std::string());
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (files[i].path == kEnvRegistryPath)
            index.has_env_registry = true;
        indexFile(files[i], lexed[i], index);
    }
    return index;
}

void
ruleEnvDrift(const IdentIndex &index, const std::string &readme_text,
             std::vector<Finding> &out)
{
    if (!index.has_env_registry)
        return; // loose fixture run without a registry: nothing to check
    std::set<std::string> registered;
    for (const NameUse &r : index.env_registered)
        registered.insert(r.name);

    for (const NameUse &u : index.env_uses) {
        if (registered.count(u.name) != 0)
            continue;
        out.push_back(
            {"env-drift", u.file, u.line,
             "\"" + u.name + "\" names no variable registered in "
             "src/common/env.cc — register the knob (or annotate the "
             "line '// lint: not-env <why>' if it is not an environment "
             "variable)"});
    }

    if (readme_text.empty())
        return;
    std::set<std::string> reported;
    for (const NameUse &r : index.env_registered) {
        if (!reported.insert(r.name).second)
            continue;
        if (readme_text.find(r.name) == std::string::npos) {
            out.push_back(
                {"env-drift", r.file, r.line,
                 "registered knob " + r.name + " is not mentioned in "
                 "README.md — document it in the environment-variable "
                 "table"});
        }
    }
}

void
ruleStatDrift(const IdentIndex &index, std::vector<Finding> &out)
{
    for (const NameUse &u : index.stat_consumed) {
        if (index.stat_produced.count(u.name) != 0)
            continue;
        bool resolved = false;
        for (const std::string &prefix : index.merge_prefixes) {
            if (prefix.empty() || u.name.size() <= prefix.size() ||
                u.name.rfind(prefix, 0) != 0)
                continue;
            if (index.stat_produced.count(u.name.substr(prefix.size())) !=
                0) {
                resolved = true;
                break;
            }
        }
        if (resolved)
            continue;
        out.push_back(
            {"stat-drift", u.file, u.line,
             "stat \"" + u.name + "\" is read here but produced by no "
             "add/set/setCounter/dist site under any merge prefix — a "
             "renamed counter? (annotate '// lint: stat-external <why>' "
             "for deliberate negative reads)"});
    }
}

void
ruleLockDiscipline(const LexedFile &lexed, const std::string &path,
                   const IdentIndex &index, std::vector<Finding> &out)
{
    const auto &t = lexed.tokens;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (t[i].kind != Token::Ident ||
            index.mutex_names.count(t[i].text) == 0)
            continue;
        if (!t[i + 1].punct(".") && !t[i + 1].punct("->"))
            continue;
        const Token &m = t[i + 2];
        if (!m.ident("lock") && !m.ident("unlock"))
            continue;
        if (!t[i + 3].punct("("))
            continue;
        if (lexed.annotated("manual-lock", t[i].line))
            continue;
        out.push_back(
            {"lock-discipline", path, t[i].line,
             "naked " + t[i].text + "." + m.text + "() — an early "
             "return or exception leaks the mutex; use std::lock_guard/"
             "std::scoped_lock/std::unique_lock (or annotate "
             "'// lint: manual-lock <why>')"});
    }
}

} // namespace lint
} // namespace caba
