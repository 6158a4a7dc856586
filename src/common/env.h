/**
 * @file
 * Central registry for every environment variable the simulator reads.
 * Determinism contract: the environment is part of a run's inputs, so
 * all access goes through this one translation unit — every variable
 * carries a type, default and doc string, and `caba_bench --help-env`
 * prints the registry. caba-lint (tools/lint/) flags any direct getenv
 * call outside src/common/env.cc.
 *
 * Unset or empty means the default. A numeric variable or CABA_AUDIT
 * set to anything that does not parse, or parses out of range, stops
 * the process with a message naming the variable and its value: a typo
 * must not silently run a different experiment.
 *
 * raw() reads the live environment: the sweep tests re-point CABA_JOBS
 * between Sweep constructions. Consumers that run on worker threads
 * (CABA_SCALE, CABA_AUDIT) cache the first read in a magic static at
 * the call site, because getenv during multithreaded phases is not
 * reliably safe against concurrent environment mutation.
 */
#ifndef CABA_COMMON_ENV_H
#define CABA_COMMON_ENV_H

#include <cstdio>
#include <string>
#include <vector>

namespace caba {
namespace env {

/** How a variable's raw string is interpreted at its point of use. */
enum class Type {
    Flag,   ///< presence alone is the signal; the value is ignored
    Int,    ///< decimal integer
    Real,   ///< decimal floating point
    Str,    ///< free-form string (path, spec, comma list)
};

/** One registered variable: the full contract a user can rely on. */
struct Var
{
    const char *name;       ///< e.g. "CABA_SCALE"
    Type type;              ///< interpretation of the raw value
    const char *fallback;   ///< human-readable default shown in --help-env
    const char *doc;        ///< one-line description
};

/** Every variable the simulator consults, in display order. */
const std::vector<Var> &registry();

/**
 * Live raw value of registered variable @p name (nullptr when unset).
 * Panics on a name that is not in the registry — a read of an
 * undeclared variable is a contract violation, not a lookup miss.
 */
const char *raw(const char *name);

/** True when the variable is present in the environment (Flag vars). */
bool flagSet(const char *name);

/** Stops the process: variable @p name holds @p value, which is not
 *  @p what (e.g. "a finite positive number"). */
[[noreturn]] void reject(const char *name, const char *value,
                         const std::string &what);

/** Parsed integer in [@p min, @p max], or @p fallback when unset or
 *  empty; any other value is fatal. */
int intOr(const char *name, int min, int max, int fallback);

/** Parsed finite positive real, or @p fallback when unset or empty;
 *  any other value is fatal. */
double positiveRealOr(const char *name, double fallback);

/** Prints the registry (name, type, default, doc) to @p out. */
void printHelp(std::FILE *out);

} // namespace env
} // namespace caba

#endif // CABA_COMMON_ENV_H
