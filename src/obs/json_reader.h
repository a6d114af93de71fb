/**
 * @file
 * Minimal recursive-descent JSON reader shared by the observability
 * parsers (parseObsLine, parseFlightBundle). Scoped to what this
 * repo's own renderers emit: objects, arrays, strings, numbers,
 * booleans, null. No unicode escapes beyond the latin-1 range. Not a
 * general JSON parser — exists so tools and tests can round-trip obs
 * files and btrace_stats reports without an external JSON dependency.
 */

#ifndef BTRACE_OBS_JSON_READER_H
#define BTRACE_OBS_JSON_READER_H

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace btrace {

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Object, Array };
    Type type = Type::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<std::pair<std::string, JsonValue>> obj;
    std::vector<JsonValue> arr;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &kv : obj)
            if (kv.first == key) return &kv.second;
        return nullptr;
    }
};

class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s(text) {}

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!value(out)) return false;
        skipWs();
        return pos == s.size();
    }

    std::string error;

  private:
    const std::string &s;
    std::size_t pos = 0;

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    fail(const char *why)
    {
        if (error.empty()) {
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%s at offset %zu", why, pos);
            error = buf;
        }
        return false;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos >= s.size()) return fail("unexpected end");
        const char c = s[pos];
        if (c == '{') return object(out);
        if (c == '[') return array(out);
        if (c == '"') {
            out.type = JsonValue::Type::String;
            return string(out.str);
        }
        if (c == '-' || (c >= '0' && c <= '9')) return number(out);
        if (s.compare(pos, 4, "null") == 0) {
            pos += 4;
            out.type = JsonValue::Type::Null;
            return true;
        }
        if (s.compare(pos, 4, "true") == 0) {
            pos += 4;
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return true;
        }
        if (s.compare(pos, 5, "false") == 0) {
            pos += 5;
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return true;
        }
        return fail("unexpected token");
    }

    bool
    string(std::string &out)
    {
        if (s[pos] != '"') return fail("expected string");
        ++pos;
        out.clear();
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c == '\\') {
                if (pos >= s.size()) return fail("bad escape");
                const char e = s[pos++];
                switch (e) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'u':
                    // Emitted only for control chars; decode latin-1
                    // range, which is all our renderers produce.
                    if (pos + 4 > s.size()) return fail("bad \\u");
                    out += static_cast<char>(
                        std::strtoul(s.substr(pos, 4).c_str(), nullptr,
                                     16));
                    pos += 4;
                    break;
                  default:
                    return fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        if (pos >= s.size()) return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool
    number(JsonValue &out)
    {
        const char *start = s.c_str() + pos;
        char *end = nullptr;
        out.num = std::strtod(start, &end);
        if (end == start) return fail("bad number");
        pos += static_cast<std::size_t>(end - start);
        out.type = JsonValue::Type::Number;
        return true;
    }

    bool
    object(JsonValue &out)
    {
        out.type = JsonValue::Type::Object;
        ++pos; // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (!string(key)) return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':'");
            ++pos;
            JsonValue v;
            if (!value(v)) return false;
            out.obj.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(JsonValue &out)
    {
        out.type = JsonValue::Type::Array;
        ++pos; // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            JsonValue v;
            if (!value(v)) return false;
            out.arr.push_back(std::move(v));
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace btrace

#endif // BTRACE_OBS_JSON_READER_H
