#ifndef ISARIA_SERVE_JSON_H
#define ISARIA_SERVE_JSON_H

/**
 * @file
 * A small JSON reader for untrusted request bodies.
 *
 * The serve protocol frames compile requests as JSON, and request
 * isolation demands that *any* byte sequence a client sends comes
 * back as a line-numbered Result diagnostic — in the same style as
 * RuleSet::parse — never as an exception escaping the connection
 * handler. So this parser is exception-free by construction: strict
 * recursive descent (RFC 8259 subset: no comments, no trailing
 * commas), every error carries the 1-based line of the offending
 * byte, and depth/size are bounded so a hostile payload ("[[[[[..."
 * a megabyte deep) cannot blow the stack.
 *
 * Numbers are held as double plus an integer flag; the request layer
 * re-checks ranges per field. Object keys keep insertion order (the
 * request parser reports *unknown* keys, so ordering matters for
 * stable diagnostics).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/result.h"

namespace isaria::serve
{

/** Nesting depth beyond which parsing fails (stack safety). */
inline constexpr int kJsonMaxDepth = 64;

/** One parsed JSON value (a small tagged tree). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    /** The number literal had no '.', 'e', or 'E' (safe as integer). */
    bool integral = false;
    std::string text;
    std::vector<JsonValue> items;
    /** Key -> value, in document order. */
    std::vector<std::pair<std::string, JsonValue>> fields;
    /** 1-based line where this value started (diagnostics). */
    int line = 0;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** The member named @p key, or nullptr. */
    const JsonValue *
    find(std::string_view key) const
    {
        for (const auto &[name, value] : fields)
            if (name == key)
                return &value;
        return nullptr;
    }
};

/** Parses @p text as one JSON document (trailing garbage is an
 *  error). Diagnostics carry the 1-based input line. */
Result<JsonValue> parseJson(std::string_view text);

} // namespace isaria::serve

#endif // ISARIA_SERVE_JSON_H
