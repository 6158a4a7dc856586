/**
 * @file
 * Minimal C++ lexer for caba-lint. Deliberately not a parser: the lint
 * rules pattern-match over a flat token stream, which is robust against
 * the subset of C++ this repo uses and keeps the tool dependency-free
 * (no libclang). The lexer understands comments (kept separately so
 * rules can honor `// lint: ...` annotations), string/char literals
 * including raw strings, preprocessor directives (skipped wholesale),
 * digit separators, and the multi-character operators the rules care
 * about (`::`, `->`, shift/comparison operators).
 */
#ifndef CABA_TOOLS_LINT_LEXER_H
#define CABA_TOOLS_LINT_LEXER_H

#include <map>
#include <set>
#include <string>
#include <vector>

namespace caba {
namespace lint {

struct Token
{
    enum Kind {
        Ident,    ///< identifier or keyword
        Number,   ///< numeric literal (incl. digit separators)
        String,   ///< string literal (text excludes quotes/prefix)
        CharLit,  ///< character literal
        Punct,    ///< operator or punctuator, longest-match
    };

    Kind kind;
    std::string text;
    int line;   ///< 1-based line of the token's first character

    bool is(Kind k, const char *t) const { return kind == k && text == t; }
    bool ident(const char *t) const { return is(Ident, t); }
    bool punct(const char *t) const { return is(Punct, t); }
};

/** One lexed translation unit. */
struct LexedFile
{
    std::vector<Token> tokens;

    /**
     * Lines whose comments carry a `lint: <tag> <reason>` annotation,
     * keyed by tag. Recognized tags (each a rule's escape hatch):
     *   order-insensitive  iteration-order: loop result is order-free
     *   not-env            env-drift: a CABA_* literal that is not an
     *                      environment variable name
     *   stat-external      stat-drift: a stat name read that is
     *                      deliberately never produced (negative tests)
     *   manual-lock        lock-discipline: a naked mutex lock/unlock
     *                      that cannot be a scoped guard
     */
    std::map<std::string, std::set<int>> annotations;

    /** True when @p line (or the line above it) carries @p tag. */
    bool
    annotated(const std::string &tag, int line) const
    {
        auto it = annotations.find(tag);
        return it != annotations.end() &&
               (it->second.count(line) != 0 ||
                it->second.count(line - 1) != 0);
    }
};

/** Lexes @p text; never fails (unknown bytes become 1-char puncts). */
LexedFile lex(const std::string &text);

} // namespace lint
} // namespace caba

#endif // CABA_TOOLS_LINT_LEXER_H
