#include "common/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace pade {

namespace {

template <typename T>
void
appendChars(std::string &out, T v)
{
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

} // namespace

void
JsonWriter::separate()
{
    if (nesting_.empty())
        return;
    // No complete value ends in '{' or '[', so the container is still
    // empty exactly when its own bracket is the last character.
    if (out_.back() != nesting_.back())
        out_ += ',';
    if (nesting_.back() == '[')
        out_ += '\n';
}

void
JsonWriter::member(std::string_view key)
{
    separate();
    write(key);
    out_ += ':';
}

void
JsonWriter::open(char bracket)
{
    out_ += bracket;
    nesting_ += bracket;
}

void
JsonWriter::close(char bracket)
{
    PADE_CHECK(!nesting_.empty() && nesting_.back() == bracket);
    nesting_.pop_back();
    if (bracket == '[' && out_.back() != '[')
        out_ += '\n';
    out_ += bracket == '[' ? ']' : '}';
}

void
JsonWriter::write(double v)
{
    appendChars(out_, std::isfinite(v) ? v : 0.0);
}

void
JsonWriter::write(int64_t v)
{
    appendChars(out_, v);
}

void
JsonWriter::write(uint64_t v)
{
    appendChars(out_, v);
}

void
JsonWriter::write(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
            out_ += "\\u00";
            out_ += kHex[u >> 4];
            out_ += kHex[u & 15];
            continue;
        }
        if (c == '"' || c == '\\')
            out_ += '\\';
        out_ += c;
    }
    out_ += '"';
}

bool
writeTextFile(const std::string &path, std::string_view text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && wrote;
}

} // namespace pade
