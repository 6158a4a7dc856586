/**
 * @file
 * Strict recursive-descent JSON parser: the reading half of
 * common/json.h. caba-lint reads its committed baseline with it, and the
 * tests use it to check that bench `--json` exports, profiler documents
 * and Chrome trace files are well-formed and carry the expected
 * structure.
 *
 * Strictness over speed: trailing garbage, unbalanced nesting, bad
 * escapes and duplicate-key objects are all parse errors — a malformed
 * document must be rejected, never half-understood. Object members are
 * kept in a std::map, so iteration order is deterministic.
 */
#ifndef CABA_COMMON_JSON_PARSE_H
#define CABA_COMMON_JSON_PARSE_H

#include <map>
#include <string>
#include <vector>

namespace caba {
namespace json {

/** One parsed JSON value (tagged union over the standard kinds). */
struct Value
{
    enum Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isNull() const { return kind == Null; }
    bool isBool() const { return kind == Bool; }
    bool isNumber() const { return kind == Number; }
    bool isString() const { return kind == String; }
    bool isArray() const { return kind == Array; }
    bool isObject() const { return kind == Object; }

    /** Member lookup; null when absent or not an object. */
    const Value *find(const std::string &key) const;
};

/**
 * Parses @p text into @p *out. @return false on any syntax error,
 * trailing garbage, or a duplicate object key; @p *error (optional)
 * receives a one-line reason.
 */
bool parse(const std::string &text, Value *out, std::string *error = nullptr);

} // namespace json
} // namespace caba

#endif // CABA_COMMON_JSON_PARSE_H
