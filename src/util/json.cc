#include "util/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace oodb {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' ||
                          *p_ == '\n')) {
      ++p_;
    }
  }

  /// Consumes `c` (after whitespace) if it is next.
  bool Eat(char c) {
    SkipWs();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  bool Literal(std::string_view word) {
    if (std::string_view(p_, size_t(end_ - p_)).substr(0, word.size()) !=
        word) {
      return false;
    }
    p_ += word.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->b = *p_ == 't';
        return Literal(out->b ? "true" : "false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++p_;  // '{'
    if (Eat('}')) return true;
    do {
      std::string key;
      JsonValue value;
      SkipWs();
      if (p_ == end_ || *p_ != '"' || !ParseString(&key) || !Eat(':') ||
          !ParseValue(&value)) {
        return false;
      }
      out->obj.emplace_back(std::move(key), std::move(value));
    } while (Eat(','));
    return Eat('}');
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++p_;  // '['
    if (Eat(']')) return true;
    do {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->arr.push_back(std::move(value));
    } while (Eat(','));
    return Eat(']');
  }

  /// Appends code point `cp` (< 0x10000, from a \u escape) as UTF-8.
  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    static constexpr std::string_view kEscapes = "n\nt\tr\rb\bf\f";
    ++p_;  // '"'
    out->clear();
    while (p_ != end_ && *p_ != '"') {
      if (*p_ != '\\') {
        out->push_back(*p_++);
        continue;
      }
      if (++p_ == end_) return false;
      const size_t k = kEscapes.find(*p_);
      if (k != std::string_view::npos && k % 2 == 0) {
        out->push_back(kEscapes[k + 1]);
      } else if (*p_ == 'u') {
        unsigned cp = 0;
        if (end_ - p_ < 5 ||
            std::from_chars(p_ + 1, p_ + 5, cp, 16).ptr != p_ + 5) {
          return false;
        }
        AppendUtf8(cp, out);
        p_ += 4;
      } else {  // '"', '\\', '/'
        out->push_back(*p_);
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing '"'
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = p_;
    while (p_ != end_ &&
           ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
            *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    if (p_ == start) return false;
    const std::string token(start, p_);
    out->type = JsonValue::Type::kNumber;
    out->i = std::strtoll(token.c_str(), nullptr, 10);
    out->u = std::strtoull(token.c_str(), nullptr, 10);
    return true;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue{};
  return JsonReader(text).Parse(out);
}

}  // namespace oodb
