#include "serve/json.h"

#include <cctype>
#include <cstdlib>

namespace isaria::serve
{

namespace
{

/** Cursor over the input with line tracking and error plumbing. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Result<JsonValue>
    parseDocument()
    {
        JsonValue value;
        if (!parseValue(value, 0))
            return takeError();
        skipWhitespace();
        if (pos_ != text_.size())
            return errorHere("trailing characters after the JSON value");
        return value;
    }

  private:
    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kJsonMaxDepth)
            return fail("value nested deeper than " +
                        std::to_string(kJsonMaxDepth) + " levels");
        skipWhitespace();
        out.line = line_;
        if (pos_ >= text_.size())
            return fail("unexpected end of input (truncated frame?)");
        char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
          case 't': return parseKeyword("true", out, true);
          case 'f': return parseKeyword("false", out, false);
          case 'n':
            if (!consumeWord("null"))
                return fail("bad keyword (expected null)");
            out.kind = JsonValue::Kind::Null;
            return true;
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber(out);
            return fail(std::string("unexpected character '") + c + "'");
        }
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWhitespace();
            if (peek() != '"')
                return fail("expected a quoted object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (peek() != ':')
                return fail("expected ':' after object key \"" + key +
                            "\"");
            ++pos_;
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.fields.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.items.push_back(std::move(value));
            skipWhitespace();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string (truncated frame?)");
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\n')
                return fail("raw newline inside a string literal");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape sequence");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad hex digit in \\u escape");
                }
                // Encode the BMP code point as UTF-8 (surrogate pairs
                // are beyond what compile requests need; reject them
                // explicitly rather than emit broken bytes).
                if (code >= 0xD800 && code <= 0xDFFF)
                    return fail("surrogate \\u escapes are not "
                                "supported");
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail(std::string("unknown escape '\\") + esc +
                            "'");
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        bool integral = true;
        if (peek() == '-')
            ++pos_;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("malformed number");
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            integral = false;
            ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("malformed number (digits must follow '.')");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            integral = false;
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("malformed exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        std::string literal(text_.substr(start, pos_ - start));
        out.kind = JsonValue::Kind::Number;
        out.integral = integral;
        out.number = std::strtod(literal.c_str(), nullptr);
        return true;
    }

    bool
    parseKeyword(const char *word, JsonValue &out, bool value)
    {
        if (!consumeWord(word))
            return fail(std::string("bad keyword (expected ") + word +
                        ")");
        out.kind = JsonValue::Kind::Bool;
        out.boolean = value;
        return true;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n') {
                ++line_;
            } else if (c != ' ' && c != '\t' && c != '\r') {
                break;
            }
            ++pos_;
        }
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool
    fail(std::string message)
    {
        if (error_.message.empty()) {
            error_.message = std::move(message);
            error_.line = line_;
        }
        return false;
    }

    Result<JsonValue>
    errorHere(std::string message)
    {
        fail(std::move(message));
        return takeError();
    }

    Result<JsonValue> takeError() { return error_; }

    std::string_view text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    Error error_;
};

} // namespace

Result<JsonValue>
parseJson(std::string_view text)
{
    Parser parser(text);
    return parser.parseDocument();
}

} // namespace isaria::serve
