/**
 * @file
 * The six caba-lint rules, pattern-matching over lexed token streams.
 * Each rule is deliberately narrow: it must fire on every seeded
 * violation in tools/lint/fixtures/ and stay silent on the real tree
 * (or the finding goes to tools/lint/baseline.json with a reason).
 */
#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "common/thread_pool.h"
#include "graph.h"
#include "index.h"
#include "lexer.h"
#include "lint.h"

namespace caba {
namespace lint {

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
inSrc(const std::string &path)
{
    return startsWith(path, "src/");
}

/** Files allowed to touch wall clocks / entropy: the seeded RNG itself,
 *  the wall-clock profiler (host-time attribution that never reads
 *  simulation state), and the trace sink (whose timestamps are
 *  simulated cycles; the whitelist covers its atexit machinery). */
bool
determinismWhitelisted(const std::string &path)
{
    static const std::set<std::string> allow = {
        "src/common/rng.h",
        "src/common/prof.cc",
        "src/common/trace.cc",
    };
    return allow.count(path) != 0;
}

bool
isEnvRegistry(const std::string &path)
{
    return path == "src/common/env.cc";
}

/** [a-z][a-z0-9]*(_[a-z0-9]+)* — lower snake_case, no leading/trailing
 *  or doubled underscores. */
bool
snakeCase(const std::string &s)
{
    if (s.empty() || !std::islower(static_cast<unsigned char>(s[0])))
        return false;
    bool prev_underscore = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '_') {
            if (prev_underscore || i + 1 == s.size())
                return false;
            prev_underscore = true;
            continue;
        }
        if (!std::islower(static_cast<unsigned char>(c)) &&
            !std::isdigit(static_cast<unsigned char>(c)))
            return false;
        prev_underscore = false;
    }
    return true;
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

bool
isMemberAccess(const std::vector<Token> &t, std::size_t i)
{
    return i > 0 && (t[i - 1].punct(".") || t[i - 1].punct("->"));
}

void
add(std::vector<Finding> &out, const std::string &rule,
    const std::string &file, int line, std::string message)
{
    out.push_back({rule, file, line, std::move(message)});
}

// ---------------------------------------------------------------------------
// determinism

const char *const kSortFns[] = {
    "sort", "stable_sort", "partial_sort", "nth_element",
    "min_element", "max_element",
};

bool
isSortFn(const std::string &s)
{
    for (const char *fn : kSortFns)
        if (s == fn)
            return true;
    return false;
}

/** One lambda parameter: pointer-typed iff its declarator contains '*'. */
struct LambdaParam
{
    std::string name;
    bool pointer = false;
};

/** Splits the token span [begin, end) at top-level commas and extracts
 *  (last-identifier, saw-star) per parameter. */
std::vector<LambdaParam>
parseParams(const std::vector<Token> &t, std::size_t begin, std::size_t end)
{
    std::vector<LambdaParam> params;
    LambdaParam cur;
    int depth = 0;
    for (std::size_t i = begin; i < end; ++i) {
        if (t[i].punct("(") || t[i].punct("<") || t[i].punct("["))
            ++depth;
        else if (t[i].punct(")") || t[i].punct(">") || t[i].punct("]"))
            --depth;
        else if (t[i].punct(",") && depth == 0) {
            if (!cur.name.empty())
                params.push_back(cur);
            cur = LambdaParam();
            continue;
        }
        if (t[i].punct("*"))
            cur.pointer = true;
        if (t[i].kind == Token::Ident)
            cur.name = t[i].text;
    }
    if (!cur.name.empty())
        params.push_back(cur);
    return params;
}

/** True when token @p i is a bare use of pointer parameter: the
 *  identifier itself, not dereferenced and not a member access base. */
bool
barePointerUse(const std::vector<Token> &t, std::size_t i,
               const std::vector<LambdaParam> &params)
{
    if (t[i].kind != Token::Ident)
        return false;
    bool is_ptr_param = false;
    for (const LambdaParam &p : params)
        if (p.pointer && p.name == t[i].text)
            is_ptr_param = true;
    if (!is_ptr_param)
        return false;
    if (i > 0 && (t[i - 1].punct("*") || t[i - 1].punct(".") ||
                  t[i - 1].punct("->")))
        return false;   // *a (value) or x.a / x->a (different variable)
    if (i + 1 < t.size() &&
        (t[i + 1].punct("->") || t[i + 1].punct(".") || t[i + 1].punct("[") ||
         t[i + 1].punct("(")))
        return false;   // a->key, a.key, a[i], a(...) — not the address
    return true;
}

/** Flags `a < b` / `a > b` comparisons of raw pointer parameters inside
 *  comparator lambdas passed to the sort family. */
void
checkSortPredicate(const std::vector<Token> &t, std::size_t call_open,
                   std::size_t call_close, const std::string &path,
                   std::vector<Finding> &out)
{
    for (std::size_t i = call_open + 1; i < call_close; ++i) {
        // Lambda introducer: '[' not preceded by a value expression.
        if (!t[i].punct("["))
            continue;
        if (i > 0 && (t[i - 1].kind == Token::Ident ||
                      t[i - 1].punct(")") || t[i - 1].punct("]")))
            continue;   // subscript, not a lambda
        // Capture list.
        std::size_t j = i;
        int depth = 0;
        for (; j < call_close; ++j) {
            if (t[j].punct("["))
                ++depth;
            else if (t[j].punct("]") && --depth == 0)
                break;
        }
        if (j >= call_close || !t[j + 1].punct("("))
            continue;
        const std::size_t params_open = j + 1;
        const std::size_t params_close = matchParen(t, params_open);
        if (params_close == std::string::npos || params_close >= call_close)
            continue;
        const auto params =
            parseParams(t, params_open + 1, params_close);
        // Body: first '{' after the parameter list.
        std::size_t body_open = params_close + 1;
        while (body_open < call_close && !t[body_open].punct("{"))
            ++body_open;
        if (body_open >= call_close)
            continue;
        int braces = 0;
        std::size_t body_close = body_open;
        for (; body_close < t.size(); ++body_close) {
            if (t[body_close].punct("{"))
                ++braces;
            else if (t[body_close].punct("}") && --braces == 0)
                break;
        }
        for (std::size_t k = body_open + 1;
             k + 1 < body_close && k < t.size(); ++k) {
            if (!t[k].punct("<") && !t[k].punct(">"))
                continue;
            if (barePointerUse(t, k - 1, params) ||
                barePointerUse(t, k + 1, params)) {
                add(out, "determinism", path, t[k].line,
                    "sort predicate compares pointer values — addresses "
                    "vary run to run; compare a stable key instead");
                break;  // one finding per lambda is enough
            }
        }
        i = body_close;
    }
}

void
ruleDeterminism(const LexedFile &f, const std::string &path,
                std::vector<Finding> &out)
{
    if (determinismWhitelisted(path))
        return;
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::Ident)
            continue;
        const bool calls =
            i + 1 < t.size() && t[i + 1].punct("(");
        const bool member = isMemberAccess(t, i);
        if ((t[i].text == "rand" || t[i].text == "srand") && calls &&
            !member) {
            add(out, "determinism", path, t[i].line,
                "call to " + t[i].text +
                    "() — use caba::Rng (common/rng.h) with an explicit "
                    "seed");
            continue;
        }
        if (t[i].text == "random_device") {
            add(out, "determinism", path, t[i].line,
                "std::random_device draws OS entropy — use caba::Rng "
                "with an explicit seed");
            continue;
        }
        if (t[i].text == "time" && calls && !member) {
            // std::time( and bare time( are hazards; other::time( is not.
            if (i > 0 && t[i - 1].punct("::") &&
                !(i > 1 && t[i - 2].ident("std")))
                continue;
            add(out, "determinism", path, t[i].line,
                "call to time() — wall-clock reads make runs "
                "unreproducible; use simulated cycles");
            continue;
        }
        if ((t[i].text == "steady_clock" || t[i].text == "system_clock" ||
             t[i].text == "high_resolution_clock") &&
            i + 2 < t.size() && t[i + 1].punct("::") && t[i + 2].ident("now")) {
            add(out, "determinism", path, t[i].line,
                "std::chrono::" + t[i].text +
                    "::now() — wall-clock reads are banned outside "
                    "the determinism whitelist (the RNG, the "
                    "profilers and the trace sink)");
            continue;
        }
        if (isSortFn(t[i].text) && calls && !member) {
            const std::size_t close = matchParen(t, i + 1);
            if (close != std::string::npos)
                checkSortPredicate(t, i + 1, close, path, out);
        }
    }
}

// ---------------------------------------------------------------------------
// iteration-order

const char *const kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

bool
isUnorderedType(const std::string &s)
{
    for (const char *u : kUnorderedTypes)
        if (s == u)
            return true;
    return false;
}

/** Records every identifier declared with an unordered container type
 *  (members, locals, parameters) into @p names. */
void
collectUnorderedNames(const LexedFile &f, std::set<std::string> &names)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::Ident || !isUnorderedType(t[i].text))
            continue;
        std::size_t j = i + 1;
        if (j >= t.size() || !t[j].punct("<"))
            continue;
        // Balance template angles; `>>` closes two.
        int depth = 0;
        for (; j < t.size(); ++j) {
            if (t[j].punct("<"))
                ++depth;
            else if (t[j].punct(">")) {
                if (--depth == 0) {
                    ++j;
                    break;
                }
            } else if (t[j].punct(">>")) {
                depth -= 2;
                if (depth <= 0) {
                    ++j;
                    break;
                }
            } else if (t[j].punct(";") || t[j].punct("{")) {
                depth = -1; // malformed / not a declaration
                break;
            }
        }
        if (depth != 0)
            continue;
        // Skip cv/ref tokens, take the declarator name.
        while (j < t.size() &&
               (t[j].ident("const") || t[j].punct("&") || t[j].punct("*") ||
                t[j].punct("&&")))
            ++j;
        if (j >= t.size() || t[j].kind != Token::Ident)
            continue;
        // A following '(' means a function declarator, not a variable.
        if (j + 1 < t.size() && t[j + 1].punct("("))
            continue;
        names.insert(t[j].text);
    }
}

bool
annotated(const LexedFile &f, int line)
{
    return f.annotated("order-insensitive", line);
}

void
ruleIterationOrder(const LexedFile &f, const std::string &path,
                   const std::set<std::string> &unordered_names,
                   std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].ident("for") || !t[i + 1].punct("("))
            continue;
        const std::size_t close = matchParen(t, i + 1);
        if (close == std::string::npos)
            continue;
        // Find the range-for ':' at top nesting level; a ';' there means
        // a classic for loop.
        std::size_t colon = std::string::npos;
        int depth = 0;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (t[j].punct("(") || t[j].punct("[") || t[j].punct("{"))
                ++depth;
            else if (t[j].punct(")") || t[j].punct("]") || t[j].punct("}"))
                --depth;
            else if (depth == 0 && t[j].punct(";"))
                break;
            else if (depth == 0 && t[j].punct(":")) {
                colon = j;
                break;
            }
        }
        if (colon == std::string::npos || colon + 1 >= close)
            continue;
        // The iterated expression resolves to an unordered container
        // only when its final token is a known unordered variable
        // (calls and complex expressions are out of a lexer's reach).
        const Token &last = t[close - 1];
        if (last.kind != Token::Ident || !unordered_names.count(last.text))
            continue;
        if (annotated(f, t[i].line) || annotated(f, t[colon].line))
            continue;
        add(out, "iteration-order", path, t[i].line,
            "range-for over unordered container '" + last.text +
                "' — iteration order is implementation-defined; iterate "
                "a sorted copy or annotate the line with "
                "'// lint: order-insensitive <reason>'");
    }
}

// ---------------------------------------------------------------------------
// env-access

void
ruleEnvAccess(const LexedFile &f, const std::string &path,
              std::vector<Finding> &out)
{
    if (isEnvRegistry(path))
        return;
    for (const Token &tok : f.tokens) {
        if (tok.ident("getenv")) {
            add(out, "env-access", path, tok.line,
                "direct getenv — read the environment through the "
                "registry in common/env.h (and register the variable "
                "there)");
        }
    }
}

// ---------------------------------------------------------------------------
// check-discipline

void
ruleCheckDiscipline(const LexedFile &f, const std::string &path,
                    std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].ident("assert") || !t[i + 1].punct("("))
            continue;
        if (isMemberAccess(t, i) || (i > 0 && t[i - 1].punct("::")))
            continue;
        add(out, "check-discipline", path, t[i].line,
            "bare assert() compiles out under NDEBUG — use CABA_CHECK "
            "(common/log.h), which always fires and prints context");
    }
}

// ---------------------------------------------------------------------------
// stat-hygiene

const char *const kStatMethods[] = {"add", "set", "setCounter", "dist"};

bool
isStatMethod(const std::string &s)
{
    for (const char *m : kStatMethods)
        if (s == m)
            return true;
    return false;
}

bool
prefixOk(const std::string &p)
{
    return p.size() >= 2 && p.back() == '_' &&
           snakeCase(p.substr(0, p.size() - 1));
}

void
ruleStatHygiene(const LexedFile &f, const std::string &path,
                std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    // Names registered with overwrite semantics in this file.
    std::map<std::string, int> overwrite_names;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (t[i].punct(".") || t[i].punct("->")) {
            const Token &m = t[i + 1];
            if (m.kind != Token::Ident || !isStatMethod(m.text))
                continue;
            if (!t[i + 2].punct("(") || t[i + 3].kind != Token::String)
                continue;
            const std::string &name = t[i + 3].text;
            if (!snakeCase(name)) {
                add(out, "stat-hygiene", path, t[i + 3].line,
                    "stat name \"" + name +
                        "\" violates the snake_case convention "
                        "(lowercase, single underscores)");
            }
            if (m.text == "set" || m.text == "setCounter") {
                auto [it, fresh] =
                    overwrite_names.emplace(name, t[i + 3].line);
                if (!fresh) {
                    add(out, "stat-hygiene", path, t[i + 3].line,
                        "duplicate stat registration \"" + name +
                            "\" — " + m.text +
                            " overwrites the value first registered on "
                            "line " + std::to_string(it->second));
                }
            }
            continue;
        }
        // mergePrefixed(set, "prefix_"): the literal must be a
        // snake_case subsystem prefix ending in '_'.
        if (t[i].kind == Token::Ident &&
            (t[i].text == "mergePrefixed" || t[i].text == "merge_prefixed") &&
            t[i + 1].punct("(")) {
            const std::size_t close = matchParen(t, i + 1);
            if (close == std::string::npos)
                continue;
            // Second top-level argument.
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
            if (arg_start == std::string::npos ||
                t[arg_start].kind != Token::String ||
                arg_start + 1 != close)
                continue;   // dynamic prefix or more tokens: not checkable
            const std::string &prefix = t[arg_start].text;
            if (!prefixOk(prefix)) {
                add(out, "stat-hygiene", path, t[arg_start].line,
                    "merge prefix \"" + prefix +
                        "\" must be a snake_case subsystem tag ending "
                        "in '_' (e.g. \"dram_\")");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// experiment-registry

/** One CABA_REGISTER_EXPERIMENT(name) call site. */
struct ExperimentRegistration
{
    std::string file;
    int line = 0;
    std::string name;
};

/** Collects `CABA_REGISTER_EXPERIMENT ( ident )` call sites. The macro
 *  definition itself lives on preprocessor lines the lexer skips, so
 *  only invocations match. */
void
collectExperimentRegistrations(const LexedFile &f, const std::string &path,
                               std::vector<ExperimentRegistration> &regs)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        // lint: not-env the registration macro's name, not a knob
        if (!t[i].ident("CABA_REGISTER_EXPERIMENT") || !t[i + 1].punct("("))
            continue;
        if (t[i + 2].kind != Token::Ident || !t[i + 3].punct(")"))
            continue;
        regs.push_back({path, t[i + 2].line, t[i + 2].text});
    }
}

/** Experiment names double as CLI selectors and JSON "bench" ids: they
 *  must be snake_case and globally unique. A duplicate would panic in
 *  ExperimentRegistry::add at static-init time; lint catches it before
 *  any binary runs. Registrations are sorted so the finding lands on
 *  the lexicographically later site regardless of input file order. */
void
ruleExperimentRegistry(std::vector<ExperimentRegistration> regs,
                       std::vector<Finding> &out)
{
    std::sort(regs.begin(), regs.end(),
              [](const ExperimentRegistration &a,
                 const ExperimentRegistration &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.name < b.name;
              });
    std::map<std::string, std::string> first_file;
    for (const ExperimentRegistration &r : regs) {
        if (!snakeCase(r.name)) {
            add(out, "experiment-registry", r.file, r.line,
                "experiment name '" + r.name +
                    "' violates the snake_case convention (lowercase, "
                    "single underscores)");
        }
        auto [it, fresh] = first_file.emplace(r.name, r.file);
        if (!fresh) {
            add(out, "experiment-registry", r.file, r.line,
                "duplicate experiment registration '" + r.name +
                    "' — first registered in " + it->second +
                    "; the registry panics on duplicates at startup");
        }
    }
}

bool
enabled(const Options &opts, const char *rule)
{
    return opts.rules.empty() || opts.rules.count(rule) != 0;
}

} // namespace

std::vector<Finding>
run(const std::vector<SourceFile> &files, const Options &opts)
{
    const int n = static_cast<int>(files.size());

    // Pass 1: lex, embarrassingly parallel, results indexed by file so
    // ordering cannot depend on scheduling.
    std::vector<LexedFile> lexed(files.size());
    parallelFor(n, opts.jobs,
                [&](int i) { lexed[static_cast<std::size_t>(i)] =
                                 lex(files[static_cast<std::size_t>(i)].text); });

    // Pass 2 (serial): the cross-file structures every later pass reads.
    std::set<std::string> unordered_names;
    std::vector<ExperimentRegistration> registrations;
    for (std::size_t i = 0; i < files.size(); ++i) {
        // Unordered declarations are collected from src/ only: a
        // test-local container must not poison same-named variables in
        // the simulator (the rule itself also only fires in src/).
        if (inSrc(files[i].path))
            collectUnorderedNames(lexed[i], unordered_names);
        collectExperimentRegistrations(lexed[i], files[i].path,
                                       registrations);
    }
    const IdentIndex index = buildIndex(files, lexed);

    // Pass 3: per-file rules, parallel into per-file slots merged in
    // file order — output is independent of the job count.
    std::vector<std::vector<Finding>> per_file(files.size());
    parallelFor(n, opts.jobs, [&](int idx) {
        const std::size_t i = static_cast<std::size_t>(idx);
        const std::string &path = files[i].path;
        const LexedFile &lf = lexed[i];
        std::vector<Finding> &slot = per_file[i];
        if (enabled(opts, "determinism"))
            ruleDeterminism(lf, path, slot);
        if (enabled(opts, "env-access"))
            ruleEnvAccess(lf, path, slot);
        if (enabled(opts, "lock-discipline"))
            ruleLockDiscipline(lf, path, index, slot);
        if (inSrc(path)) {
            if (enabled(opts, "iteration-order"))
                ruleIterationOrder(lf, path, unordered_names, slot);
            if (enabled(opts, "check-discipline"))
                ruleCheckDiscipline(lf, path, slot);
            if (enabled(opts, "stat-hygiene"))
                ruleStatHygiene(lf, path, slot);
        }
    });

    std::vector<Finding> out;
    for (std::vector<Finding> &slot : per_file)
        for (Finding &f : slot)
            out.push_back(std::move(f));

    // Pass 4 (serial): whole-program rules.
    if (enabled(opts, "experiment-registry"))
        ruleExperimentRegistry(std::move(registrations), out);
    if (enabled(opts, "include-cycle") || enabled(opts, "layering")) {
        const IncludeGraph graph = buildIncludeGraph(files);
        if (enabled(opts, "include-cycle"))
            ruleIncludeCycle(graph, out);
        if (enabled(opts, "layering"))
            ruleLayering(graph, out);
    }
    if (enabled(opts, "env-drift"))
        ruleEnvDrift(index, opts.readme_text, out);
    if (enabled(opts, "stat-drift"))
        ruleStatDrift(index, out);

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return out;
}

std::vector<Finding>
run(const std::vector<SourceFile> &files)
{
    return run(files, Options());
}

} // namespace lint
} // namespace caba
