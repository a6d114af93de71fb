/**
 * @file
 * The one JSON writer. Every JSON document the repository emits goes
 * through it, so commas, escapes and number formats follow one rule
 * set. That covers obs JSON-lines, btrace_stats reports, Chrome
 * trace-event exports, flight bundles and BENCH_main.json.
 *
 * Output is compact (no whitespace). The writer tracks nesting and
 * the commas between members; call sites only name keys and values.
 * Every key and string is escaped: quote, backslash, `\n`, `\t`, `\r`,
 * and `\u00XX` for the other control characters. Integers, booleans
 * and strings are formatted by hand, with no snprintf and no locale.
 * Doubles go through snprintf at the precision the caller passes, so
 * there is no `value(double)`: a call site picks fixed(), sig() or
 * metric().
 *
 * Two sinks:
 *  - over a caller-owned buffer it never allocates and truncates
 *    silently at the buffer's end. The flight recorder renders its
 *    bundle this way, so a watchdog trip caused by memory exhaustion
 *    still produces one (DESIGN.md §9);
 *  - over a std::string it appends, growing the string.
 */

#ifndef BTRACE_COMMON_JSON_WRITER_H
#define BTRACE_COMMON_JSON_WRITER_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace btrace {

class JsonWriter
{
  public:
    /** Bounded sink: writes into dst[0, cap) and never allocates. */
    JsonWriter(char *dst, std::size_t capacity) : buf(dst), cap(capacity) {}

    /** Growing sink: appends to @p out. */
    explicit JsonWriter(std::string &out) : str(&out) {}

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** Name the next value; the writer adds the comma before it. */
    JsonWriter &
    key(std::string_view k)
    {
        separate();
        quoted(k);
        put(':');
        afterKey = true;
        return *this;
    }

    JsonWriter &
    value(std::string_view s)
    {
        separate();
        quoted(s);
        return *this;
    }

    /** Exact match for literals, so they never convert to bool. */
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }

    JsonWriter &
    value(bool b)
    {
        separate();
        write(b ? "true" : "false", b ? 4 : 5);
        return *this;
    }

    template <typename Int,
              std::enable_if_t<std::is_integral_v<Int> &&
                                   !std::is_same_v<Int, bool>,
                               int> = 0>
    JsonWriter &
    value(Int v)
    {
        separate();
        if constexpr (std::is_signed_v<Int>) {
            if (v < 0) {
                put('-');
                digits(0 - static_cast<uint64_t>(v));
                return *this;
            }
        }
        digits(static_cast<uint64_t>(v));
        return *this;
    }

    /** Doubles need a stated format: fixed(), sig() or metric(). */
    JsonWriter &value(double) = delete;

    template <typename T>
    JsonWriter &
    field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

    /** @p decimals digits after the point ("%.*f"). */
    JsonWriter &
    fixed(double v, int decimals)
    {
        return formatted("%.*f", decimals, v);
    }

    /** @p digits significant digits ("%.*g"). */
    JsonWriter &
    sig(double v, int digits)
    {
        return formatted("%.*g", digits, v);
    }

    /**
     * `whole.fff`, @p frac (below 1000) as three digits: an exact
     * decimal with no double in between, e.g. nanoseconds written as
     * microseconds.
     */
    JsonWriter &
    thousandths(uint64_t whole, unsigned frac)
    {
        separate();
        digits(whole);
        const char f[4] = {'.', static_cast<char>('0' + frac / 100 % 10),
                           static_cast<char>('0' + frac / 10 % 10),
                           static_cast<char>('0' + frac % 10)};
        write(f, sizeof(f));
        return *this;
    }

    /**
     * The metric number rule, shared by JSON-lines and the Prometheus
     * text: integral values (counters, bucket bounds) without a
     * fraction, NaN as `NaN`, anything else to 10 significant digits,
     * enough to round-trip a rate or a ratio.
     */
    JsonWriter &
    metric(double v)
    {
        if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15)
            return value(static_cast<int64_t>(v));
        if (std::isnan(v)) {
            separate();
            write("NaN", 3);
            return *this;
        }
        return sig(v, 10);
    }

    /** Output length: the bounded sink's bytes, or the string's size. */
    std::size_t size() const { return str != nullptr ? str->size() : len; }

  private:
    JsonWriter &
    open(char c)
    {
        separate();
        put(c);
        first = true;
        return *this;
    }

    JsonWriter &
    close(char c)
    {
        put(c);
        first = false;  // the closed container is a member of its parent
        return *this;
    }

    /** A comma before each member but the first; none after a key. */
    void
    separate()
    {
        if (afterKey)
            afterKey = false;
        else if (!first)
            put(',');
        first = false;
    }

    void
    quoted(std::string_view s)
    {
        put('"');
        std::size_t plain = 0;  // start of the run not yet written
        for (std::size_t i = 0; i < s.size(); ++i) {
            const auto c = static_cast<unsigned char>(s[i]);
            if (c >= 0x20 && c != '"' && c != '\\')
                continue;
            write(s.data() + plain, i - plain);
            plain = i + 1;
            escape(c);
        }
        write(s.data() + plain, s.size() - plain);
        put('"');
    }

    /** \n, \t and \r by name, \" and \\, any other control as \u00XX. */
    void
    escape(unsigned char c)
    {
        static constexpr char hex[] = "0123456789abcdef";
        const char named = c == '\n' ? 'n'
                           : c == '\t' ? 't'
                           : c == '\r' ? 'r'
                           : c >= 0x20 ? static_cast<char>(c)
                                       : '\0';
        put('\\');
        if (named != '\0') {
            put(named);
            return;
        }
        const char u[5] = {'u', '0', '0', hex[c >> 4], hex[c & 0xf]};
        write(u, sizeof(u));
    }

    void
    digits(uint64_t v)
    {
        char d[20];
        std::size_t n = 0;
        do {
            d[sizeof(d) - ++n] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        write(d + sizeof(d) - n, n);
    }

    JsonWriter &
    formatted(const char *fmt, int precision, double v)
    {
        separate();
        char d[384];  // "%.*f" of DBL_MAX is 309 digits plus decimals
        const int n = std::snprintf(d, sizeof(d), fmt, precision, v);
        if (n > 0)
            write(d, std::min(std::size_t(n), sizeof(d) - 1));
        return *this;
    }

    void
    put(char c)
    {
        write(&c, 1);
    }

    void
    write(const char *p, std::size_t n)
    {
        if (str != nullptr) {
            str->append(p, n);
            return;
        }
        for (std::size_t i = 0; i < n && len < cap; ++i)
            buf[len++] = p[i];
    }

    std::string *str = nullptr;
    char *buf = nullptr;
    std::size_t cap = 0;
    std::size_t len = 0;
    bool first = true;  //!< nothing written yet in the open container
    bool afterKey = false;
};

} // namespace btrace

#endif // BTRACE_COMMON_JSON_WRITER_H
