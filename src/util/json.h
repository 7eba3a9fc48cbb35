/**
 * @file
 * Minimal streaming JSON writer shared by every emitter in the tree
 * (sn40l_run --json, bench perf harnesses, the cluster controller
 * log, the trace and fault-schedule JSONL files). Replaces the
 * hand-rolled `out << "{\"key\": ..."` printers that had drifted
 * into three slightly different dialects. Its reading counterpart,
 * readJsonl, is the strict loader of those JSONL files.
 *
 * The writer is append-only and comma-managed: callers open objects
 * and arrays, emit key/value pairs, and close scopes; the writer
 * tracks whether a separator is due. Doubles are written with 17
 * significant digits so metrics round-trip bit-exactly. Pretty mode
 * indents two spaces per level (the BENCH_*.json house style);
 * compact mode emits one-line JSON for JSONL streams.
 */

#ifndef SN40L_UTIL_JSON_H
#define SN40L_UTIL_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "sim/log.h"

namespace sn40l::util {

class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, bool pretty = false)
        : os_(os), pretty_(pretty)
    {
        os_.precision(17);
    }

    JsonWriter &
    beginObject()
    {
        separate();
        os_ << '{';
        push();
        return *this;
    }

    JsonWriter &
    endObject()
    {
        pop();
        os_ << '}';
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        separate();
        os_ << '[';
        push();
        return *this;
    }

    JsonWriter &
    endArray()
    {
        pop();
        os_ << ']';
        return *this;
    }

    JsonWriter &
    key(const char *k)
    {
        separate();
        quote(k);
        os_ << ':';
        if (pretty_)
            os_ << ' ';
        keyPending_ = true;
        return *this;
    }

    JsonWriter &
    value(double v)
    {
        separate();
        // JSON has no inf/nan literals; clamp to null like every
        // tolerant emitter does.
        if (std::isfinite(v))
            os_ << v;
        else
            os_ << "null";
        return *this;
    }

    JsonWriter &
    value(std::int64_t v)
    {
        separate();
        os_ << v;
        return *this;
    }

    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }

    JsonWriter &
    value(std::uint64_t v)
    {
        separate();
        os_ << v;
        return *this;
    }

    JsonWriter &
    value(bool v)
    {
        separate();
        os_ << (v ? "true" : "false");
        return *this;
    }

    JsonWriter &
    value(const std::string &v)
    {
        separate();
        quote(v.c_str());
        return *this;
    }

    JsonWriter &value(const char *v) { return value(std::string(v)); }

    /** key(k) + value(v), the common field spelling. */
    template <typename T>
    JsonWriter &
    field(const char *k, T v)
    {
        key(k);
        return value(v);
    }

  private:
    void
    push()
    {
        first_.push_back(true);
        keyPending_ = false;
    }

    void
    pop()
    {
        first_.pop_back();
        keyPending_ = false;
        newlineIndent();
    }

    /** Emit the comma/newline due before the next element. */
    void
    separate()
    {
        if (keyPending_) {
            // Value completing a key: no separator.
            keyPending_ = false;
            return;
        }
        if (first_.empty())
            return;
        if (!first_.back())
            os_ << ',';
        first_.back() = false;
        newlineIndent(1);
    }

    void
    newlineIndent(std::size_t extra = 0)
    {
        if (!pretty_)
            return;
        os_ << '\n';
        std::size_t depth = first_.size() + extra;
        for (std::size_t i = 1; i < depth; ++i)
            os_ << "  ";
    }

    void
    quote(const char *s)
    {
        os_ << '"';
        for (const char *p = s; *p; ++p) {
            switch (*p) {
              case '"': os_ << "\\\""; break;
              case '\\': os_ << "\\\\"; break;
              case '\n': os_ << "\\n"; break;
              case '\t': os_ << "\\t"; break;
              default: os_ << *p; break;
            }
        }
        os_ << '"';
    }

    std::ostream &os_;
    bool pretty_;
    std::vector<bool> first_;
    bool keyPending_ = false;
};

/**
 * The fixed layout of a JSONL file (writeJsonl, readJsonl): a header
 * line {"<magic>":1,"<countKey>":N}, N record lines of compact JSON,
 * then nothing but blank lines.
 */
struct JsonlFormat
{
    const char *label;    ///< message prefix: "trace", "faults"
    const char *kind;     ///< as in "unsupported <kind> version 2"
    const char *hint;     ///< line errors end "(<hint>)"
    const char *magic;    ///< header version key: "sn40l_trace"
    const char *countKey; ///< header record-count key: "requests"
};

/**
 * Strict field-by-field parser of one line: the format is fixed-order
 * and machine-written, so any deviation is corruption and dies with a
 * FatalError naming the file, line, and expectation.
 */
struct JsonLineParser
{
    const JsonlFormat &format;
    const std::string &path;
    std::size_t lineNo;
    const std::string &line;
    std::size_t pos = 0;

    [[noreturn]] void
    die(const std::string &why) const
    {
        sim::fatal(std::string(format.label) + " " + path + " line " +
                   std::to_string(lineNo) + ": " + why + " (" +
                   format.hint + ")");
    }

    void
    lit(const char *text)
    {
        std::size_t n = std::string(text).size();
        if (line.compare(pos, n, text) != 0)
            die("expected '" + std::string(text) + "' at column " +
                std::to_string(pos + 1));
        pos += n;
    }

    long long
    integer(const char *key)
    {
        return parsed(key, "integer", [](const char *b, char **e) {
            return std::strtoll(b, e, 10);
        });
    }

    double
    number(const char *key)
    {
        return parsed(key, "number", [](const char *b, char **e) {
            return std::strtod(b, e);
        });
    }

    std::string
    word(const char *key)
    {
        field(key, "\":\"");
        std::size_t close = line.find('"', pos);
        if (close == std::string::npos)
            die(std::string("unterminated string for key '") + key + "'");
        std::string v = line.substr(pos, close - pos);
        pos = close + 1;
        return v;
    }

    void
    finish()
    {
        lit("}");
        if (pos != line.size())
            die("trailing characters after '}'");
    }

  private:
    /** A field's `"key":` prefix, or `"key":"` for a string. */
    void
    field(const char *key, const char *open = "\":")
    {
        lit("\"");
        lit(key);
        lit(open);
    }

    template <typename Strto>
    auto
    parsed(const char *key, const char *what, Strto strto)
        -> decltype(strto(nullptr, nullptr))
    {
        field(key);
        const char *begin = line.c_str() + pos;
        char *end = nullptr;
        auto v = strto(begin, &end);
        if (end == begin)
            die(std::string("malformed ") + what + " for key '" + key +
                "'");
        pos += static_cast<std::size_t>(end - begin);
        return v;
    }
};

/**
 * Write @p count records to @p path in @p format: the header line,
 * then one compact object a line whose fields @p write_record(w, i)
 * emits. Every failure is a FatalError.
 */
template <typename WriteRecord>
void
writeJsonl(const JsonlFormat &format, const std::string &path,
           std::size_t count, WriteRecord write_record)
{
    const std::string label = format.label;
    std::ofstream out(path);
    if (!out)
        sim::fatal(label + ": cannot write " + path);
    JsonWriter w(out);
    w.beginObject()
        .field(format.magic, 1)
        .field(format.countKey, count)
        .endObject();
    out << '\n';
    for (std::size_t i = 0; i < count; ++i) {
        w.beginObject();
        write_record(w, i);
        w.endObject();
        out << '\n';
    }
    if (!out)
        sim::fatal(label + ": write to " + path + " failed");
}

/**
 * Load @p path in @p format: open it, check the header, call
 * @p on_header(header, N) (it rejects a bad count), then
 * @p on_record(p, i) for record lines 0..N-1 (it parses the whole
 * line, braces included), and reject a short file or anything but
 * blank lines after the N records. Every failure is a FatalError.
 */
template <typename OnHeader, typename OnRecord>
void
readJsonl(const JsonlFormat &format, const std::string &path,
          OnHeader on_header, OnRecord on_record)
{
    const std::string label = format.label;
    std::ifstream in(path);
    if (!in)
        sim::fatal(label + ": cannot open " + path);

    std::string line;
    if (!std::getline(in, line))
        sim::fatal(label + " " + path + ": empty file (expected a {\"" +
                   format.magic + "\":1,...} header)");
    JsonLineParser header{format, path, 1, line};
    header.lit("{");
    long long version = header.integer(format.magic);
    if (version != 1)
        header.die(std::string("unsupported ") + format.kind +
                   " version " + std::to_string(version));
    header.lit(",");
    long long count = header.integer(format.countKey);
    header.finish();
    on_header(header, count);

    const std::string of =
        " of " + std::to_string(count) + " " + format.countKey;
    for (long long i = 0; i < count; ++i) {
        if (!std::getline(in, line))
            sim::fatal(label + " " + path + ": truncated after " +
                       std::to_string(i) + of);
        JsonLineParser p{format, path, static_cast<std::size_t>(i + 2),
                         line};
        on_record(p, i);
    }
    // Anything after the promised records is corruption; scan every
    // remaining line (tolerating pure trailing newlines) so garbage
    // cannot hide behind a blank line.
    while (std::getline(in, line)) {
        if (!line.empty())
            sim::fatal(label + " " + path + ": trailing garbage after " +
                       std::to_string(count) + " " + format.countKey);
    }
}

} // namespace sn40l::util

#endif // SN40L_UTIL_JSON_H
