#include "stats/export.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/format.hh"

namespace rlr::stats
{

namespace json
{

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

double
Value::numberOr(const std::string &key, double def) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->number : def;
}

std::string
Value::stringOr(const std::string &key, std::string def) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->string : def;
}

namespace
{

/** Recursive-descent parser over a bounds-checked cursor. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error(util::format(
            "JSON parse error at offset {}: {}", pos_, why));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(util::format("expected '{}'", c));
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char *word)
    {
        const size_t len = std::string_view(word).size();
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                const unsigned code = static_cast<unsigned>(
                    std::strtoul(text_.substr(pos_, 4).c_str(),
                                 nullptr, 16));
                pos_ += 4;
                // The exports only escape control characters; emit
                // BMP code points as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out +=
                        static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f));
                    out +=
                        static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    Value
    parseObject()
    {
        ++pos_;
        Value v;
        v.kind = Value::Kind::Object;
        if (consume('}'))
            return v;
        while (true) {
            std::string key = parseString();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            if (consume('}'))
                return v;
            expect(',');
        }
    }

    Value
    parseArray()
    {
        ++pos_;
        Value v;
        v.kind = Value::Kind::Array;
        if (consume(']'))
            return v;
        while (true) {
            v.array.push_back(parseValue());
            if (consume(']'))
                return v;
            expect(',');
        }
    }

    Value
    parseValue()
    {
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth)
                fail(util::format("nesting deeper than {} levels",
                                  kMaxDepth));
            ++depth_;
            Value v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        Value v;
        if (c == '"') {
            v.kind = Value::Kind::String;
            v.string = parseString();
            return v;
        }
        if (consumeWord("null"))
            return v;
        if (consumeWord("true")) {
            v.kind = Value::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeWord("false")) {
            v.kind = Value::Kind::Bool;
            return v;
        }
        // Number.
        const size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+'))
            ++pos_;
        if (pos_ == start)
            fail("invalid value");
        v.kind = Value::Kind::Number;
        v.number = std::strtod(
            text_.substr(start, pos_ - start).c_str(), nullptr);
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
    /** Open arrays/objects around the cursor. */
    int depth_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

} // namespace json

std::string
toJson(const Snapshot &snap)
{
    std::string out = "{\n  \"counters\": {";
    for (size_t i = 0; i < snap.counters.size(); ++i) {
        if (i)
            out += ", ";
        out += util::format("\"{}\": {}",
                            json::escape(snap.counters[i].first),
                            snap.counters[i].second);
    }
    out += "},\n  \"formulas\": {";
    for (size_t i = 0; i < snap.formulas.size(); ++i) {
        if (i)
            out += ", ";
        out += util::format("\"{}\": {}",
                            json::escape(snap.formulas[i].first),
                            json::number(snap.formulas[i].second));
    }
    out += "},\n  \"histograms\": {";
    for (size_t i = 0; i < snap.histograms.size(); ++i) {
        const auto &[path, h] = snap.histograms[i];
        if (i)
            out += ", ";
        out += util::format("\"{}\": {{\"bucket_width\": {}, "
                            "\"buckets\": [",
                            json::escape(path), h.bucket_width);
        for (size_t b = 0; b < h.buckets.size(); ++b) {
            if (b)
                out += ", ";
            out += std::to_string(h.buckets[b]);
        }
        out += util::format("], \"overflow\": {}}}", h.overflow);
    }
    out += "}\n}\n";
    return out;
}

Snapshot
fromJson(const json::Value &root)
{
    if (!root.isObject())
        throw std::runtime_error(
            "snapshot JSON: top level is not an object");
    Snapshot snap;
    if (const auto *counters = root.find("counters")) {
        for (const auto &[k, v] : counters->object)
            snap.counters.emplace_back(
                k, static_cast<uint64_t>(v.number));
    }
    if (const auto *formulas = root.find("formulas")) {
        for (const auto &[k, v] : formulas->object)
            snap.formulas.emplace_back(k, v.number);
    }
    if (const auto *histograms = root.find("histograms")) {
        for (const auto &[k, v] : histograms->object) {
            HistogramData h;
            h.bucket_width = static_cast<uint64_t>(
                v.numberOr("bucket_width", 1));
            h.overflow =
                static_cast<uint64_t>(v.numberOr("overflow", 0));
            if (const auto *buckets = v.find("buckets")) {
                for (const auto &b : buckets->array)
                    h.buckets.push_back(
                        static_cast<uint64_t>(b.number));
            }
            snap.histograms.emplace_back(k, std::move(h));
        }
    }
    return snap;
}

Snapshot
fromJson(const std::string &text)
{
    return fromJson(json::parse(text));
}

} // namespace rlr::stats
