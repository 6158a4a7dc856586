#include "common/json_parse.h"

#include <cstdlib>

namespace caba {
namespace json {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Object)
        return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(Value *out, std::string *error)
    {
        *out = parseValue();
        skipSpace();
        if (ok_ && pos_ != text_.size())
            fail("trailing garbage after document");
        if (!ok_ && error != nullptr)
            *error = error_;
        return ok_;
    }

  private:
    void
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            error_ = why + " at offset " + std::to_string(pos_);
        }
    }

    char
    peek()
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    char
    next()
    {
        return pos_ < text_.size() ? text_[pos_++] : '\0';
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p)
            if (next() != *p)
                return fail(std::string("bad literal (expected ") + word +
                            ")");
    }

    Value
    parseValue()
    {
        skipSpace();
        Value v;
        switch (peek()) {
          case '{': v = parseObject(); break;
          case '[': v = parseArray(); break;
          case '"':
            v.kind = Value::String;
            v.string = parseString();
            break;
          case 't':
            literal("true");
            v.kind = Value::Bool;
            v.boolean = true;
            break;
          case 'f':
            literal("false");
            v.kind = Value::Bool;
            break;
          case 'n': literal("null"); break;
          default: v = parseNumber(); break;
        }
        return v;
    }

    Value
    parseObject()
    {
        Value v;
        v.kind = Value::Object;
        next(); // '{'
        skipSpace();
        if (peek() == '}') {
            next();
            return v;
        }
        while (ok_) {
            skipSpace();
            if (peek() != '"') {
                fail("expected object key");
                break;
            }
            const std::string key = parseString();
            skipSpace();
            if (next() != ':') {
                fail("expected ':' after object key");
                break;
            }
            // A duplicate key means the author's intent is ambiguous —
            // reject rather than let last-writer win.
            if (v.object.count(key) != 0) {
                fail("duplicate object key \"" + key + "\"");
                break;
            }
            v.object[key] = parseValue();
            skipSpace();
            const char c = next();
            if (c == '}')
                break;
            if (c != ',') {
                fail("expected ',' or '}' in object");
                break;
            }
        }
        return v;
    }

    Value
    parseArray()
    {
        Value v;
        v.kind = Value::Array;
        next(); // '['
        skipSpace();
        if (peek() == ']') {
            next();
            return v;
        }
        while (ok_) {
            v.array.push_back(parseValue());
            skipSpace();
            const char c = next();
            if (c == ']')
                break;
            if (c != ',') {
                fail("expected ',' or ']' in array");
                break;
            }
        }
        return v;
    }

    std::string
    parseString()
    {
        std::string s;
        next(); // '"'
        while (ok_) {
            const char c = next();
            if (c == '"')
                break;
            if (c == '\0') {
                fail("unterminated string");
                break;
            }
            if (c != '\\') {
                s += c;
                continue;
            }
            const char e = next();
            switch (e) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = next();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // ASCII only: the writer never emits higher escapes;
                // anything higher is replaced, never mis-decoded.
                s += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default: fail("bad escape"); break;
            }
        }
        return s;
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' ||
                (text_[pos_] >= '0' && text_[pos_] <= '9')))
            ++pos_;
        Value v;
        if (pos_ == start) {
            fail("expected value");
            return v;
        }
        const std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        v.number = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size()) {
            fail("bad number '" + tok + "'");
            return v;
        }
        v.kind = Value::Number;
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

} // namespace

bool
parse(const std::string &text, Value *out, std::string *error)
{
    return Parser(text).parse(out, error);
}

} // namespace json
} // namespace caba
