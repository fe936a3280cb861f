#include "common/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace soma {

Json
Json::Bool(bool b)
{
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = b;
    return j;
}

Json
Json::Number(double d)
{
    Json j;
    j.type_ = Type::kNumber;
    j.num_ = d;
    return j;
}

Json
Json::Int(std::int64_t i)
{
    Json j;
    j.type_ = Type::kNumber;
    j.num_ = static_cast<double>(i);
    if (i >= 0) {
        j.u64_ = static_cast<std::uint64_t>(i);
        j.exact_u64_ = true;
    }
    return j;
}

Json
Json::U64(std::uint64_t u)
{
    Json j;
    j.type_ = Type::kNumber;
    j.num_ = static_cast<double>(u);
    j.u64_ = u;
    j.exact_u64_ = true;
    return j;
}

Json
Json::Str(std::string s)
{
    Json j;
    j.type_ = Type::kString;
    j.str_ = std::move(s);
    return j;
}

Json
Json::Array()
{
    Json j;
    j.type_ = Type::kArray;
    return j;
}

Json
Json::Object()
{
    Json j;
    j.type_ = Type::kObject;
    return j;
}

bool
Json::AsBool(bool dflt) const
{
    return type_ == Type::kBool ? bool_ : dflt;
}

double
Json::AsDouble(double dflt) const
{
    return type_ == Type::kNumber ? num_ : dflt;
}

std::int64_t
Json::AsInt(std::int64_t dflt) const
{
    if (type_ != Type::kNumber) return dflt;
    if (exact_u64_) {
        return u64_ <= static_cast<std::uint64_t>(INT64_MAX)
                   ? static_cast<std::int64_t>(u64_)
                   : INT64_MAX;  // saturate (the cast would be UB)
    }
    if (std::isnan(num_)) return dflt;
    // Saturate outside the representable range; 2^63 itself is the
    // first double the cast cannot express.
    if (num_ >= 9223372036854775808.0) return INT64_MAX;
    if (num_ <= -9223372036854775808.0) return INT64_MIN;
    return static_cast<std::int64_t>(num_);
}

std::uint64_t
Json::AsU64(std::uint64_t dflt) const
{
    if (type_ != Type::kNumber) return dflt;
    if (exact_u64_) return u64_;
    if (!(num_ >= 0)) return dflt;  // negative or NaN
    // Saturate outside the representable range; 2^64 itself is the
    // first double the cast cannot express.
    if (num_ >= 18446744073709551616.0) return UINT64_MAX;
    return static_cast<std::uint64_t>(num_);
}

const std::string &
Json::AsString() const
{
    static const std::string kEmpty;
    return type_ == Type::kString ? str_ : kEmpty;
}

Json &
Json::Append(Json v)
{
    if (type_ == Type::kNull) type_ = Type::kArray;
    arr_.push_back(std::move(v));
    return *this;
}

const Json *
Json::Find(const std::string &key) const
{
    if (type_ != Type::kObject) return nullptr;
    for (const auto &kv : obj_)
        if (kv.first == key) return &kv.second;
    return nullptr;
}

Json &
Json::Set(const std::string &key, Json v)
{
    if (type_ == Type::kNull) type_ = Type::kObject;
    for (auto &kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return *this;
        }
    }
    obj_.emplace_back(key, std::move(v));
    return *this;
}

bool
Json::Erase(const std::string &key)
{
    for (auto it = obj_.begin(); it != obj_.end(); ++it) {
        if (it->first == key) {
            obj_.erase(it);
            return true;
        }
    }
    return false;
}

namespace {

void
EscapeTo(const std::string &s, std::string *out)
{
    out->push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': *out += "\\\""; break;
          case '\\': *out += "\\\\"; break;
          case '\n': *out += "\\n"; break;
          case '\r': *out += "\\r"; break;
          case '\t': *out += "\\t"; break;
          case '\b': *out += "\\b"; break;
          case '\f': *out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                *out += buf;
            } else {
                out->push_back(c);
            }
        }
    }
    out->push_back('"');
}

void
NumberTo(double d, std::uint64_t u64, bool exact_u64, std::string *out)
{
    if (exact_u64) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(u64));
        *out += buf;
        return;
    }
    if (!std::isfinite(d)) {
        *out += "null";  // JSON has no inf/nan
        return;
    }
    // Integral doubles inside the exact range print as integers; the
    // rest with 17 significant digits, which round-trips IEEE doubles
    // bit-exactly through strtod.
    if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(d));
        *out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    *out += buf;
}

void
Indent(std::string *out, int indent, int depth)
{
    out->push_back('\n');
    out->append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void
Json::DumpTo(std::string *out, int indent, int depth, bool sorted) const
{
    switch (type_) {
      case Type::kNull: *out += "null"; break;
      case Type::kBool: *out += bool_ ? "true" : "false"; break;
      case Type::kNumber: NumberTo(num_, u64_, exact_u64_, out); break;
      case Type::kString: EscapeTo(str_, out); break;
      case Type::kArray: {
        if (arr_.empty()) {
            *out += "[]";
            break;
        }
        out->push_back('[');
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i) out->push_back(',');
            if (indent >= 0) Indent(out, indent, depth + 1);
            arr_[i].DumpTo(out, indent, depth + 1, sorted);
        }
        if (indent >= 0) Indent(out, indent, depth);
        out->push_back(']');
        break;
      }
      case Type::kObject: {
        if (obj_.empty()) {
            *out += "{}";
            break;
        }
        std::vector<const std::pair<std::string, Json> *> members;
        members.reserve(obj_.size());
        for (const auto &kv : obj_) members.push_back(&kv);
        if (sorted) {
            std::sort(members.begin(), members.end(),
                      [](const auto *a, const auto *b) {
                          return a->first < b->first;
                      });
        }
        out->push_back('{');
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (i) out->push_back(',');
            if (indent >= 0) Indent(out, indent, depth + 1);
            EscapeTo(members[i]->first, out);
            out->push_back(':');
            if (indent >= 0) out->push_back(' ');
            members[i]->second.DumpTo(out, indent, depth + 1, sorted);
        }
        if (indent >= 0) Indent(out, indent, depth);
        out->push_back('}');
        break;
      }
    }
}

std::string
Json::Dump(int indent) const
{
    std::string out;
    DumpTo(&out, indent, 0);
    return out;
}

std::string
Json::CanonicalDump() const
{
    std::string out;
    DumpTo(&out, /*indent=*/-1, 0, /*sorted=*/true);
    return out;
}

namespace {

/** Recursive-descent JSON parser over a byte range. */
class Parser {
  public:
    Parser(const std::string &text, std::string *err)
        : text_(text), err_(err)
    {
    }

    bool Run(Json *out)
    {
        SkipWs();
        if (!ParseValue(out, 0)) return false;
        SkipWs();
        if (pos_ != text_.size())
            return Fail("trailing characters after JSON value");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 200;

    bool Fail(const std::string &what)
    {
        if (err_ && err_->empty())
            *err_ = what + " at byte " + std::to_string(pos_);
        return false;
    }

    void SkipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    bool Literal(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n]) ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return Fail("invalid literal");
        pos_ += n;
        return true;
    }

    bool ParseString(std::string *out)
    {
        if (text_[pos_] != '"') return Fail("expected string");
        ++pos_;
        out->clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"') return true;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) break;
            char e = text_[pos_++];
            switch (e) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return Fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9') cp |= h - '0';
                    else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
                    else return Fail("invalid \\u escape");
                }
                // UTF-8 encode (surrogate pairs are passed through as
                // two 3-byte sequences; schema strings are ASCII).
                if (cp < 0x80) {
                    out->push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
                    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                } else {
                    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
                    out->push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                }
                break;
              }
              default: return Fail("invalid escape");
            }
        }
        return Fail("unterminated string");
    }

    bool ParseNumber(Json *out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") return Fail("invalid number");
        errno = 0;
        if (integral && token[0] != '-') {
            char *end = nullptr;
            unsigned long long u = std::strtoull(token.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0') {
                *out = Json::U64(u);
                return true;
            }
            errno = 0;  // overflow: fall through to double
        }
        char *end = nullptr;
        double d = std::strtod(token.c_str(), &end);
        if (!end || *end != '\0') return Fail("invalid number");
        *out = Json::Number(d);
        return true;
    }

    bool ParseValue(Json *out, int depth)
    {
        if (depth > kMaxDepth) return Fail("nesting too deep");
        if (pos_ >= text_.size()) return Fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case 'n':
            if (!Literal("null")) return false;
            *out = Json::Null();
            return true;
          case 't':
            if (!Literal("true")) return false;
            *out = Json::Bool(true);
            return true;
          case 'f':
            if (!Literal("false")) return false;
            *out = Json::Bool(false);
            return true;
          case '"': {
            std::string s;
            if (!ParseString(&s)) return false;
            *out = Json::Str(std::move(s));
            return true;
          }
          case '[': {
            ++pos_;
            *out = Json::Array();
            SkipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                Json elem;
                SkipWs();
                if (!ParseValue(&elem, depth + 1)) return false;
                out->Append(std::move(elem));
                SkipWs();
                if (pos_ >= text_.size())
                    return Fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return Fail("expected ',' or ']'");
            }
          }
          case '{': {
            ++pos_;
            *out = Json::Object();
            SkipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                SkipWs();
                if (pos_ >= text_.size() || text_[pos_] != '"')
                    return Fail("expected object key");
                std::string key;
                if (!ParseString(&key)) return false;
                SkipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return Fail("expected ':'");
                ++pos_;
                SkipWs();
                Json val;
                if (!ParseValue(&val, depth + 1)) return false;
                out->Set(key, std::move(val));
                SkipWs();
                if (pos_ >= text_.size())
                    return Fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return Fail("expected ',' or '}'");
            }
          }
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return ParseNumber(out);
            return Fail("unexpected character");
        }
    }

    const std::string &text_;
    std::string *err_;
    std::size_t pos_ = 0;
};

}  // namespace

bool
Json::Parse(const std::string &text, Json *out, std::string *err)
{
    if (err) err->clear();
    Parser p(text, err);
    return p.Run(out);
}

}  // namespace soma
