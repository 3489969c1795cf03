/**
 * @file
 * The one JSON writer behind every artifact (metrics snapshot, serving
 * telemetry blob, Chrome trace, BENCH_perf.json), and the checked file
 * write they share. Format rules: docs/OBSERVABILITY.md.
 */

#ifndef PADE_COMMON_JSON_WRITER_H
#define PADE_COMMON_JSON_WRITER_H

#include <cstdint>
#include <string>
#include <string_view>

namespace pade {

/**
 * Builds one JSON document in a string, in one fixed layout: compact
 * separators ("k":v) and each array element on its own line. Doubles
 * are shortest round-trip, non-finite ones become 0; strings escape
 * '"' and '\' and write control characters as \u00XX. Values are
 * double, int64_t, uint64_t, bool or a string; an int argument is
 * ambiguous on purpose, so every call site names its type.
 */
class JsonWriter
{
  public:
    void beginObject() { separate(); open('{'); }
    void beginObject(std::string_view key) { member(key); open('{'); }
    void endObject() { close('{'); }
    void beginArray() { separate(); open('['); }
    void beginArray(std::string_view key) { member(key); open('['); }
    void endArray() { close('['); }

    /** A bare value: the root or an array element. */
    template <typename T> void value(T v) { separate(); write(v); }
    /** A member of the enclosing object. */
    template <typename T>
    void value(std::string_view key, T v) { member(key); write(v); }

    /** Embeds @p json, an already-serialized document, verbatim. */
    void raw(std::string_view key, std::string_view json)
    {
        member(key);
        out_ += json;
    }

    const std::string &str() const { return out_; }

  private:
    void separate();
    void member(std::string_view key);
    void open(char bracket);
    void close(char bracket);
    void write(double v);
    void write(int64_t v);
    void write(uint64_t v);
    void write(bool v) { out_ += v ? "true" : "false"; }
    void write(std::string_view s);
    void write(const char *s) { write(std::string_view(s)); }

    std::string out_;
    std::string nesting_; //!< opening brackets not yet closed
};

/** Writes @p text to @p path; false if open, write or close fails. */
bool writeTextFile(const std::string &path, std::string_view text);

} // namespace pade

#endif // PADE_COMMON_JSON_WRITER_H
