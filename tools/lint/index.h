/**
 * @file
 * Cross-TU string/identifier index for caba-lint's drift rules
 * (DESIGN.md §14). Built once from the lexed token streams, it records
 * what the tree *declares* — environment variables registered in
 * common/env.cc, stat names produced at StatSet call sites, merge
 * prefixes, mutex-typed variable names — and what the rest of the tree
 * *uses*, so the drift rules can cross-check the two sides:
 *
 *  - env-drift        every full-literal CABA_* string outside the
 *                     registry must name a registered variable, and
 *                     every registered knob must be documented in
 *                     README (dead knobs and phantom knobs both fail);
 *  - stat-drift       stat names read through get/ratio/findDist/
 *                     isGauge must be produced by some add/set/
 *                     setCounter/dist site (modulo the mergePrefixed
 *                     prefixes), so a silently renamed counter orphans
 *                     its readers loudly;
 *  - lock-discipline  naked .lock()/.unlock() on a variable declared
 *                     with a mutex type anywhere in the tree — use
 *                     lock_guard / scoped_lock / unique_lock.
 */
#ifndef CABA_TOOLS_LINT_INDEX_H
#define CABA_TOOLS_LINT_INDEX_H

#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace caba {
namespace lint {

/** One use of an indexed name at a specific site. */
struct NameUse
{
    std::string file;
    int line = 0;
    std::string name;
};

/** The whole-program identifier index. */
struct IdentIndex
{
    /** True when src/common/env.cc was part of the input set (unit
     *  tests over loose fixtures skip registry-dependent checks). */
    bool has_env_registry = false;

    /** CABA_* names registered in src/common/env.cc, with their
     *  registration sites (for anchoring README-drift findings). */
    std::vector<NameUse> env_registered;

    /** Full-literal CABA_* strings outside the registry. */
    std::vector<NameUse> env_uses;

    /** Stat names registered by produce sites: literal first arguments
     *  of add/set/setCounter/dist calls anywhere, and literal members of
     *  all-string brace arrays in src/ (name tables indexed at runtime). */
    std::set<std::string> stat_produced;

    /** Literal mergePrefixed/merge_prefixed prefixes (plus ""). */
    std::set<std::string> merge_prefixes;

    /** Literal stat names at read sites: get/findDist/isGauge first
     *  argument, both ratio arguments. */
    std::vector<NameUse> stat_consumed;

    /** Names of variables declared with a mutex type, tree-wide. */
    std::set<std::string> mutex_names;
};

/** Builds the index over @p files / @p lexed (parallel vectors). */
IdentIndex buildIndex(const std::vector<SourceFile> &files,
                      const std::vector<LexedFile> &lexed);

/** env-drift over the index; @p readme_text is the README contents
 *  ("" = not available, README-side checks skipped). */
void ruleEnvDrift(const IdentIndex &index, const std::string &readme_text,
                  std::vector<Finding> &out);

/** stat-drift over the index. */
void ruleStatDrift(const IdentIndex &index, std::vector<Finding> &out);

/** lock-discipline over one file, using the tree-wide mutex names. */
void ruleLockDiscipline(const LexedFile &lexed, const std::string &path,
                        const IdentIndex &index, std::vector<Finding> &out);

} // namespace lint
} // namespace caba

#endif // CABA_TOOLS_LINT_INDEX_H
