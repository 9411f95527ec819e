#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/log.h"

namespace isrf {

void
JsonWriter::preValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!needComma_.empty()) {
        if (needComma_.back())
            out_ << ",";
        needComma_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    out_ << "{";
    needComma_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (needComma_.empty())
        panic("JsonWriter: endObject with no open container");
    needComma_.pop_back();
    out_ << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    out_ << "[";
    needComma_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (needComma_.empty())
        panic("JsonWriter: endArray with no open container");
    needComma_.pop_back();
    out_ << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    if (needComma_.empty())
        panic("JsonWriter: key() outside an object");
    if (needComma_.back())
        out_ << ",";
    needComma_.back() = true;
    out_ << "\"" << escape(k) << "\":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    preValue();
    out_ << "\"" << escape(v) << "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    if (!std::isfinite(v)) {
        out_ << "null";  // JSON has no Inf/NaN
        return *this;
    }
    out_ << strprintf("%.10g", v);
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    preValue();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    preValue();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    preValue();
    out_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    preValue();
    out_ << json;
    return *this;
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out.push_back(c);
        }
    }
    return out;
}

// ----------------------------------------------------------------------
// Validator: recursive-descent over the RFC 8259 grammar.
// ----------------------------------------------------------------------

namespace {

struct JsonCursor
{
    const char *p;
    const char *end;
    const char *base;  ///< start of the text; spans are offsets from it
    /** Where to record top-level member spans (null: validate only). */
    std::vector<JsonMemberSpan> *members = nullptr;
    int depth = 0;

    bool atEnd() const { return p >= end; }
    char
    peek() const
    {
        return atEnd() ? '\0' : *p;
    }
    void
    skipWs()
    {
        while (!atEnd() &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            p++;
    }
    /** Record a member that ends at p, if it is a top-level one. */
    void
    member(const char *key, const char *keyEnd, const char *value)
    {
        if (!members || depth != 1)
            return;
        members->push_back({static_cast<size_t>(key - base),
                            static_cast<size_t>(keyEnd - base),
                            static_cast<size_t>(value - base),
                            static_cast<size_t>(p - base)});
    }
};

bool parseValue(JsonCursor &c);

bool
parseLiteral(JsonCursor &c, const char *lit)
{
    size_t n = std::char_traits<char>::length(lit);
    if (static_cast<size_t>(c.end - c.p) < n)
        return false;
    if (std::char_traits<char>::compare(c.p, lit, n) != 0)
        return false;
    c.p += n;
    return true;
}

bool
parseString(JsonCursor &c)
{
    if (c.peek() != '"')
        return false;
    c.p++;
    while (!c.atEnd()) {
        char ch = *c.p++;
        if (ch == '"')
            return true;
        if (static_cast<unsigned char>(ch) < 0x20)
            return false;
        if (ch == '\\') {
            if (c.atEnd())
                return false;
            char esc = *c.p++;
            switch (esc) {
              case '"': case '\\': case '/': case 'b': case 'f':
              case 'n': case 'r': case 't':
                break;
              case 'u':
                for (int i = 0; i < 4; i++) {
                    if (c.atEnd() ||
                        !std::isxdigit(
                            static_cast<unsigned char>(*c.p)))
                        return false;
                    c.p++;
                }
                break;
              default:
                return false;
            }
        }
    }
    return false;  // unterminated
}

bool
parseNumber(JsonCursor &c)
{
    const char *start = c.p;
    if (c.peek() == '-')
        c.p++;
    if (!std::isdigit(static_cast<unsigned char>(c.peek())))
        return false;
    if (c.peek() == '0') {
        c.p++;
    } else {
        while (std::isdigit(static_cast<unsigned char>(c.peek())))
            c.p++;
    }
    if (c.peek() == '.') {
        c.p++;
        if (!std::isdigit(static_cast<unsigned char>(c.peek())))
            return false;
        while (std::isdigit(static_cast<unsigned char>(c.peek())))
            c.p++;
    }
    if (c.peek() == 'e' || c.peek() == 'E') {
        c.p++;
        if (c.peek() == '+' || c.peek() == '-')
            c.p++;
        if (!std::isdigit(static_cast<unsigned char>(c.peek())))
            return false;
        while (std::isdigit(static_cast<unsigned char>(c.peek())))
            c.p++;
    }
    return c.p > start;
}

bool
parseObject(JsonCursor &c)
{
    c.p++;  // consume '{'
    c.skipWs();
    if (c.peek() == '}') {
        c.p++;
        return true;
    }
    while (true) {
        c.skipWs();
        const char *key = c.p;
        if (!parseString(c))
            return false;
        const char *keyEnd = c.p;
        c.skipWs();
        if (c.peek() != ':')
            return false;
        c.p++;
        c.skipWs();
        const char *value = c.p;
        if (!parseValue(c))
            return false;
        c.member(key + 1, keyEnd - 1, value);
        c.skipWs();
        if (c.peek() == ',') {
            c.p++;
            continue;
        }
        if (c.peek() == '}') {
            c.p++;
            return true;
        }
        return false;
    }
}

bool
parseArray(JsonCursor &c)
{
    c.p++;  // consume '['
    c.skipWs();
    if (c.peek() == ']') {
        c.p++;
        return true;
    }
    while (true) {
        c.skipWs();
        const char *value = c.p;
        if (!parseValue(c))
            return false;
        c.member(value, value, value);
        c.skipWs();
        if (c.peek() == ',') {
            c.p++;
            continue;
        }
        if (c.peek() == ']') {
            c.p++;
            return true;
        }
        return false;
    }
}

bool
parseValue(JsonCursor &c)
{
    if (++c.depth > 512)
        return false;  // runaway nesting
    c.skipWs();
    bool ok;
    switch (c.peek()) {
      case '{': ok = parseObject(c); break;
      case '[': ok = parseArray(c); break;
      case '"': ok = parseString(c); break;
      case 't': ok = parseLiteral(c, "true"); break;
      case 'f': ok = parseLiteral(c, "false"); break;
      case 'n': ok = parseLiteral(c, "null"); break;
      default: ok = parseNumber(c); break;
    }
    c.depth--;
    return ok;
}

/** Parse `text` as one value; `open` ('{' or '['), if set, must start it. */
bool
parseText(const std::string &text, char open,
          std::vector<JsonMemberSpan> *members)
{
    JsonCursor c{text.data(), text.data() + text.size(), text.data(),
                 members};
    c.skipWs();
    if (open && c.peek() != open)
        return false;
    if (!parseValue(c))
        return false;
    c.skipWs();
    return c.atEnd();
}

} // namespace

bool
jsonValid(const std::string &text)
{
    return parseText(text, '\0', nullptr);
}

bool
jsonScan(const std::string &text, char open,
         std::vector<JsonMemberSpan> &members)
{
    members.clear();
    return parseText(text, open, &members);
}

bool
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    size_t n = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = n == content.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

} // namespace isrf
