#include "common/env.h"

#include <array>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "common/parse.h"

namespace caba {
namespace env {

namespace {

/* The registry proper. Adding a variable means adding a row here —
 * nothing else: snapshotting, raw(), typed accessors and --help-env all
 * derive from this table. Keep rows in the order users should read
 * them. */
constexpr std::array<Var, 7> kVars{{
    {"CABA_SCALE", Type::Real, "1.0",
     "Workload loop-trip multiplier, finite and positive, applied on top "
     "of any --scale flag."},
    {"CABA_JOBS", Type::Int, "hardware concurrency",
     "Sweep and caba-lint worker threads, a positive integer (1 = "
     "serial); a --jobs flag wins when given."},
    {"CABA_AUDIT", Type::Str, "end",
     "Self-consistency audit level: off|end|full|<period-cycles>."},
    {"CABA_TRACE", Type::Str, "(unset: tracing off)",
     "Chrome trace-event output path; presence enables tracing for the "
     "whole process."},
    {"CABA_TRACE_CATEGORIES", Type::Str, "all",
     "Comma-separated trace categories: "
     "warp,assist,cache,dram,xbar,slots,counter,all; an unknown name is "
     "fatal."},
    {"CABA_EVENT_DRIVEN", Type::Int, "1",
     "Run-loop schedule, 1 or 0: 1 lets components sleep until their "
     "nextWork() hint or incoming traffic; 0 runs the ticked oracle, "
     "cycling every component every clock. Both step the clock one "
     "cycle at a time (CI byte-diffs them; results are "
     "bit-identical)."},
    {"CABA_PROF", Type::Str, "(unset: profiler off)",
     "In-loop wall-clock profiler output path: attributes host time per "
     "component class and phase, writes caba-prof-v1 JSON at exit plus "
     "a top-N table on stderr. Simulation results are bit-identical "
     "profiler on/off."},
}};

std::size_t
indexOf(const char *name)
{
    for (std::size_t i = 0; i < kVars.size(); ++i)
        if (std::strcmp(kVars[i].name, name) == 0)
            return i;
    CABA_PANIC("env: variable not in registry (add it to common/env.cc)");
}

const char *
typeName(Type t)
{
    switch (t) {
      case Type::Int: return "int";
      case Type::Real: return "real";
      case Type::Str: return "string";
    }
    return "?";
}

} // namespace

const std::vector<Var> &
registry()
{
    static const std::vector<Var> vars(kVars.begin(), kVars.end());
    return vars;
}

const char *
raw(const char *name)
{
    return std::getenv(kVars[indexOf(name)].name);
}

void
reject(const char *name, const char *value, const std::string &what)
{
    const std::string msg =
        std::string(name) + "='" + value + "' is not " + what;
    CABA_FATAL(msg.c_str());
}

int
intOr(const char *name, int min, int max, int fallback)
{
    const char *v = raw(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    long n = 0;
    if (!parse::boundedInt(v, min, max, &n))
        reject(name, v,
               "an integer in [" + std::to_string(min) + ", " +
                   std::to_string(max) + "]");
    return static_cast<int>(n);
}

double
positiveRealOr(const char *name, double fallback)
{
    const char *v = raw(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    double d = 0.0;
    if (!parse::finitePositiveReal(v, &d))
        reject(name, v, "a finite positive number");
    return d;
}

void
printHelp(std::FILE *out)
{
    std::fprintf(out, "Environment variables (all optional):\n");
    for (const Var &v : registry()) {
        std::fprintf(out, "  %-22s %-7s default: %s\n", v.name,
                     typeName(v.type), v.fallback);
        std::fprintf(out, "      %s\n", v.doc);
    }
}

} // namespace env
} // namespace caba
