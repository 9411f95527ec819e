/**
 * @file
 * Minimal JSON emission and validation.
 *
 * JsonWriter is a streaming writer with automatic comma placement and
 * string escaping — enough to export machine reports and benchmark
 * results without a third-party dependency. jsonValid() is a strict
 * structural validator used by tests and tools to check exported files
 * without parsing them into a DOM; jsonScan() is the same parse, which
 * also locates the top-level members of an object or array.
 */
#ifndef ISRF_UTIL_JSON_H
#define ISRF_UTIL_JSON_H

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace isrf {

/** Streaming JSON writer (object/array nesting, escaping, commas). */
class JsonWriter
{
  public:
    JsonWriter() = default;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by a value or container. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(int v) { return value(static_cast<int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<uint64_t>(v));
    }
    JsonWriter &value(bool v);

    /** Splice pre-serialized JSON in value position (caller-validated). */
    JsonWriter &raw(const std::string &json);

    /** key + value in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }

    /** The document so far. */
    std::string str() const { return out_.str(); }

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &s);

  private:
    void preValue();

    std::ostringstream out_;
    /** Nesting stack: for each level, whether a separator is needed. */
    std::vector<bool> needComma_;
    bool pendingKey_ = false;
};

/**
 * Strict structural JSON validity check (RFC 8259 grammar, no DOM).
 * @return true iff `text` is exactly one valid JSON value.
 */
bool jsonValid(const std::string &text);

/** Byte spans of one top-level member of a JSON object or array. */
struct JsonMemberSpan
{
    /** [keyBegin, keyEnd): an object key's escaped text, no quotes. */
    size_t keyBegin = 0, keyEnd = 0;
    /** [begin, end): the value's text, without surrounding space. */
    size_t begin = 0, end = 0;
};

/**
 * jsonValid() for an object (`open` = '{') or an array (`open` = '['),
 * which also records, in order, the span of each top-level member or
 * element. Array elements have an empty key span. @return false, with
 * `members` unspecified, when `text` is not exactly one valid JSON
 * value of that kind.
 */
bool jsonScan(const std::string &text, char open,
              std::vector<JsonMemberSpan> &members);

/** Write a string to a file. @return false on I/O error. */
bool writeTextFile(const std::string &path, const std::string &content);

} // namespace isrf

#endif // ISRF_UTIL_JSON_H
