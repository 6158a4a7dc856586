/**
 * @file
 * Strict numeric parsing shared by the caba_bench, caba_cli and
 * caba-lint CLIs, the numeric env knobs (common/env.h) and the
 * CABA_AUDIT period.
 * These exist because the lenient strtod/strtol idiom has bitten
 * twice: strtod accepts "nan"/"inf" (and `x <= 0` is false for NaN, so
 * a sign check does not reject it), and strtol saturates huge values to
 * LONG_MAX which then truncates silently through an int cast. Every
 * helper here demands the whole token parse, rejects non-finite values,
 * and range-checks before any narrowing.
 */
#ifndef CABA_COMMON_PARSE_H
#define CABA_COMMON_PARSE_H

#include <string>

namespace caba {
namespace parse {

/**
 * Parses @p s as a finite, strictly positive real. Rejects empty
 * strings, trailing garbage, "nan", "inf"/"infinity", hex floats are
 * fine (strtod grammar) as long as they are finite and > 0.
 * @return true and sets @p *out on success; false leaves @p *out alone.
 */
bool finitePositiveReal(const std::string &s, double *out);

/**
 * Parses @p s as a decimal integer in [@p min, @p max]. Rejects empty
 * strings, trailing garbage, and out-of-range values (including
 * strtol's ERANGE saturation, which would otherwise truncate through a
 * narrowing cast). @return true and sets @p *out on success.
 */
bool boundedInt(const std::string &s, long min, long max, long *out);

/** boundedInt into an int, range [@p min, INT_MAX]. */
bool intInRange(const std::string &s, int min, int *out);

} // namespace parse
} // namespace caba

#endif // CABA_COMMON_PARSE_H
