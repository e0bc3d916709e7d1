#include "trace_validate.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>

namespace hifi
{
namespace telemetry
{

// ---- Minimal JSON parser -------------------------------------------

namespace
{

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;
};

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing content after the JSON document");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error_ && error_->empty())
            *error_ = message + " (at byte " +
                std::to_string(pos_) + ")";
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (c == 't' || c == 'f')
            return parseKeyword(out);
        if (c == 'n')
            return parseKeyword(out);
        return parseNumber(out);
    }

    bool
    parseKeyword(JsonValue &out)
    {
        auto match = [&](const char *kw) {
            const size_t n = std::string(kw).size();
            if (text_.compare(pos_, n, kw) != 0)
                return false;
            pos_ += n;
            return true;
        };
        if (match("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (match("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (match("null")) {
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return fail("invalid keyword");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return fail("invalid number");
        pos_ += static_cast<size_t>(end - start);
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"')
            return fail("expected '\"'");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
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
                      for (int i = 0; i < 4; ++i)
                          if (!std::isxdigit(static_cast<unsigned char>(
                                  text_[pos_ + i])))
                              return fail("invalid \\u escape");
                      // Non-ASCII code points degrade to '?'; the
                      // validator only needs ASCII span names.
                      out += '?';
                      pos_ += 4;
                      break;
                  }
                  default:
                    return fail("invalid escape character");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            out.arr.emplace_back();
            skipWs();
            if (!parseValue(out.arr.back()))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            if (!parseValue(out.obj[key]))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

bool
checkFail(std::string *error, const std::string &message)
{
    if (error && error->empty())
        *error = message;
    return false;
}

} // namespace

bool
validateChromeTrace(const std::string &json,
                    const TraceCheckOptions &options,
                    std::string *error, TraceStats *stats)
{
    if (error)
        error->clear();
    JsonValue root;
    JsonParser parser(json, error);
    if (!parser.parse(root))
        return false;
    if (root.kind != JsonValue::Kind::Object)
        return checkFail(error, "trace root must be an object");
    const auto it = root.obj.find("traceEvents");
    if (it == root.obj.end() ||
        it->second.kind != JsonValue::Kind::Array)
        return checkFail(error,
                         "missing or non-array 'traceEvents'");

    struct Interval
    {
        double ts, end;
        std::string name;
    };
    std::map<double, std::vector<Interval>> perTid;
    std::map<std::string, size_t> nameCounts;

    for (const JsonValue &ev : it->second.arr) {
        if (ev.kind != JsonValue::Kind::Object)
            return checkFail(error, "trace event is not an object");
        auto field = [&](const char *key) -> const JsonValue * {
            const auto f = ev.obj.find(key);
            return f == ev.obj.end() ? nullptr : &f->second;
        };
        const JsonValue *name = field("name");
        const JsonValue *ph = field("ph");
        if (!name || name->kind != JsonValue::Kind::String ||
            name->str.empty())
            return checkFail(error, "event missing a string 'name'");
        if (!ph || ph->kind != JsonValue::Kind::String ||
            ph->str != "X")
            return checkFail(error, "event '" + name->str +
                             "' is not a ph=\"X\" complete event");
        for (const char *key : {"ts", "dur", "pid", "tid"}) {
            const JsonValue *v = field(key);
            if (!v || v->kind != JsonValue::Kind::Number)
                return checkFail(error, "event '" + name->str +
                                 "' missing numeric '" + key + "'");
        }
        const double ts = field("ts")->number;
        const double dur = field("dur")->number;
        if (ts < 0.0 || dur < 0.0)
            return checkFail(error, "event '" + name->str +
                             "' has negative ts or dur");
        ++nameCounts[name->str];
        perTid[field("tid")->number].push_back(
            {ts, ts + dur, name->str});
    }

    // Span nesting: on one thread, intervals are disjoint or
    // contained — never partially overlapping.  The tolerance covers
    // the microsecond rounding of the writer (3 decimals = 1 ns).
    constexpr double kEps = 0.002;
    for (auto &[tid, spans] : perTid) {
        std::sort(spans.begin(), spans.end(),
                  [](const Interval &a, const Interval &b) {
                      if (a.ts != b.ts)
                          return a.ts < b.ts;
                      return a.end > b.end;
                  });
        std::vector<const Interval *> stack;
        for (const Interval &s : spans) {
            while (!stack.empty() &&
                   s.ts >= stack.back()->end - kEps)
                stack.pop_back();
            if (!stack.empty() && s.end > stack.back()->end + kEps)
                return checkFail(
                    error, "span '" + s.name + "' partially overlaps "
                    "'" + stack.back()->name + "' on tid " +
                    std::to_string(static_cast<long long>(tid)));
            stack.push_back(&s);
        }
    }

    if (nameCounts.size() < options.minDistinctNames)
        return checkFail(error, "only " +
                         std::to_string(nameCounts.size()) +
                         " distinct span names, need >= " +
                         std::to_string(options.minDistinctNames));
    for (const std::string &prefix : options.requiredPrefixes) {
        bool found = false;
        for (const auto &[n, cnt] : nameCounts)
            if (n.compare(0, prefix.size(), prefix) == 0) {
                found = true;
                break;
            }
        if (!found)
            return checkFail(error, "no span name with prefix '" +
                             prefix + "'");
    }

    if (stats) {
        stats->events = 0;
        for (const auto &[n, cnt] : nameCounts)
            stats->events += cnt;
        stats->distinctNames = nameCounts.size();
        stats->names.clear();
        for (const auto &[n, cnt] : nameCounts)
            stats->names.push_back(n);
    }
    return true;
}

} // namespace telemetry
} // namespace hifi
