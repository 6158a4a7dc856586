/**
 * @file
 * caba-lint — project-specific static analysis enforcing the
 * simulator's determinism and invariant contracts (see DESIGN.md §9 and
 * §14). v2 is a whole-program analyzer: besides the per-file token
 * rules it builds an include graph and a cross-TU identifier index over
 * the entire input set.
 *
 * Rules (rule ids are stable; they appear in findings, baselines and
 * the JSON report):
 *
 *  - determinism      rand/srand, std::random_device, time(),
 *                     std::chrono::*_clock::now and pointer-value
 *                     comparisons in sort predicates are banned outside
 *                     a whitelist (common/rng.h, common/prof.cc,
 *                     common/trace.cc).
 *  - iteration-order  range-for over a variable declared as
 *                     std::unordered_map/set anywhere in the scanned
 *                     tree is flagged in src/ unless the line (or the
 *                     line above) carries `// lint: order-insensitive`.
 *  - env-access       getenv is only legal inside src/common/env.cc,
 *                     the environment registry.
 *  - check-discipline bare assert( in src/ must be CABA_CHECK (always
 *                     on, prints context, independent of NDEBUG).
 *  - stat-hygiene     StatSet names must be snake_case; re-registering
 *                     the same set/setCounter name in one file is a
 *                     silent overwrite and an error; mergePrefixed
 *                     prefixes must be snake_case ending in '_'.
 *  - experiment-registry
 *                     CABA_REGISTER_EXPERIMENT names (which double as
 *                     caba_bench CLI selectors and JSON "bench" ids)
 *                     must be snake_case and unique across the whole
 *                     tree — a duplicate panics at static-init time.
 *  - include-cycle    strongly connected components in the quoted-
 *                     include graph over src/ (tools/lint/graph.h).
 *  - layering         includes must point sideways or down the layer
 *                     map in DESIGN.md §14, never up.
 *  - env-drift        every full-literal CABA_* string must name a
 *                     variable registered in src/common/env.cc, and
 *                     every registered knob must appear in README.md
 *                     (tools/lint/index.h).
 *  - stat-drift       stat names read via get/ratio/findDist/isGauge
 *                     must be produced by some add/set/setCounter/dist
 *                     site, modulo mergePrefixed prefixes — a silently
 *                     renamed counter orphans its readers loudly.
 *  - lock-discipline  naked .lock()/.unlock() on mutex-typed variables;
 *                     use lock_guard / scoped_lock / unique_lock.
 */
#ifndef CABA_TOOLS_LINT_LINT_H
#define CABA_TOOLS_LINT_LINT_H

#include <set>
#include <string>
#include <vector>

namespace caba {
namespace lint {

struct Finding
{
    std::string rule;      ///< stable rule id (see file comment)
    std::string file;      ///< repo-relative path, '/'-separated
    int line = 0;          ///< 1-based
    std::string message;
};

/** A source file to lint: @p path is the repo-relative path (which
 *  decides rule scoping and whitelists), @p text the contents. */
struct SourceFile
{
    std::string path;
    std::string text;
};

/** Driver options. The defaults reproduce a serial all-rules run. */
struct Options
{
    /** Worker threads for lexing and the per-file rules. Findings are
     *  merged in deterministic order, so output is byte-identical at
     *  any job count; <= 1 runs inline with no pool. */
    int jobs = 1;

    /** Rule ids to run; empty = all. Names must come from ruleNames(). */
    std::set<std::string> rules;

    /** README.md contents for env-drift's documentation direction
     *  ("" = skip that direction). runTree fills this from
     *  <root>/README.md when left empty. */
    std::string readme_text;
};

/** Every rule id, in fixed report order. */
const std::vector<std::string> &ruleNames();

/**
 * Lints @p files as one program: pass 1 lexes (parallel across
 * opts.jobs workers), pass 2 builds the cross-file structures (unordered
 * names, experiment registrations, include graph, identifier index),
 * pass 3 applies the per-file rules (parallel), pass 4 the
 * whole-program rules. Findings are sorted by (file, line, rule,
 * message) regardless of job count.
 */
std::vector<Finding> run(const std::vector<SourceFile> &files,
                         const Options &opts);

/** run() with default options (serial, all rules). */
std::vector<Finding> run(const std::vector<SourceFile> &files);

/**
 * Reads .h, .cc and .cpp files under <root>/{bench, examples, src,
 * tests, tools} (lexicographic walk, so results are machine-independent),
 * skipping tools/lint/fixtures/ (deliberate violations). Sets @p *files.
 * On I/O failure returns false and sets @p error.
 */
bool collectTree(const std::string &root, std::vector<SourceFile> *files,
                 std::string *error);

/**
 * collectTree + run. When @p opts.readme_text is empty, <root>/README.md
 * is read for env-drift (a missing README skips that direction).
 */
bool runTree(const std::string &root, Options opts,
             std::vector<Finding> *out, std::string *error);

/** runTree with default options. */
bool runTree(const std::string &root, std::vector<Finding> *out,
             std::string *error);

/** Human-readable report: "file:line: [rule] message" lines. */
std::string toText(const std::vector<Finding> &findings);

/**
 * Deterministic JSON report (schema caba-lint-v1): per-rule counts and
 * the full finding list, with @p baselined entries marked.
 */
std::string toJson(const std::vector<Finding> &findings,
                   const std::vector<Finding> &baselined);

/**
 * Parses a baseline document (same schema as toJson; only the rule,
 * file and message fields are consulted — line numbers may drift).
 * Returns false on malformed input.
 */
bool parseBaseline(const std::string &json_text, std::vector<Finding> *out,
                   std::string *error);

/**
 * Splits @p findings into @p fresh and @p matched against @p baseline.
 * A finding matches a baseline entry with the same rule, file and
 * message, regardless of line.
 */
void applyBaseline(const std::vector<Finding> &findings,
                   const std::vector<Finding> &baseline,
                   std::vector<Finding> *fresh,
                   std::vector<Finding> *matched);

} // namespace lint
} // namespace caba

#endif // CABA_TOOLS_LINT_LINT_H
