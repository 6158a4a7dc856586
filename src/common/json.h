/**
 * @file
 * Minimal JSON writer used for the machine-readable run exports
 * (bench `--json` files), the Chrome trace-event sink, the profiler
 * document and the caba-lint report. Emission only — parsing lives in
 * common/json_parse.h. Output is deterministic: keys are written in
 * call order, doubles with "%.17g" (shortest round-trippable form), so
 * two runs producing bit-identical values produce byte-identical JSON.
 */
#ifndef CABA_COMMON_JSON_H
#define CABA_COMMON_JSON_H

#include <cstdint>
#include <string>
#include <vector>

namespace caba {

/** Streaming JSON builder with explicit begin/end nesting. */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Starts a "key": inside an object; follow with a value or begin*. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v) { return value(std::string(v)); }

    /** Shorthand for key(k).value(v). */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }

    /** The document built so far (call when nesting is balanced). */
    const std::string &str() const { return out_; }

    /** Escapes @p s for embedding inside a JSON string literal. */
    static std::string escape(const std::string &s);

  private:
    void separate();

    std::string out_;
    /** One entry per open container: has a value been written yet? */
    std::vector<bool> has_item_;
    bool after_key_ = false;
};

} // namespace caba

#endif // CABA_COMMON_JSON_H
