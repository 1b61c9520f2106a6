#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "obs/export.h"

namespace msq::serve {

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(Array a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::make_shared<const Array>(std::move(a));
  return v;
}

JsonValue JsonValue::MakeObject(Object o) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::make_shared<const Object>(std::move(o));
  return v;
}

bool JsonValue::AsBool() const {
  MSQ_CHECK(is_bool());
  return bool_;
}

double JsonValue::AsNumber() const {
  MSQ_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::AsString() const {
  MSQ_CHECK(is_string());
  return string_;
}

const JsonValue::Array& JsonValue::AsArray() const {
  MSQ_CHECK(is_array());
  return *array_;
}

const JsonValue::Object& JsonValue::AsObject() const {
  MSQ_CHECK(is_object());
  return *object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : *object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

// Recursive-descent parser over a bounded input. All failure paths funnel
// through Fail() so every error carries the byte offset.
class Parser {
 public:
  Parser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    Status status = ParseValue(0, &value);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON value");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  Status ConsumeLiteral(const char* literal) {
    const std::size_t n = std::strlen(literal);
    if (text_.size() - pos_ < n ||
        text_.compare(pos_, n, literal) != 0) {
      return Fail(std::string("expected '") + literal + "'");
    }
    pos_ += n;
    return Status();
  }

  Status CountValue() {
    if (++values_ > limits_.max_values) {
      return Fail("too many values (limit " +
                  std::to_string(limits_.max_values) + ")");
    }
    return Status();
  }

  Status ParseValue(std::size_t depth, JsonValue* out) {
    if (depth > limits_.max_depth) {
      return Fail("nesting deeper than " +
                  std::to_string(limits_.max_depth));
    }
    Status counted = CountValue();
    if (!counted.ok()) return counted;
    SkipWhitespace();
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        Status status = ParseString(&s);
        if (!status.ok()) return status;
        *out = JsonValue::MakeString(std::move(s));
        return Status();
      }
      case 't': {
        Status status = ConsumeLiteral("true");
        if (!status.ok()) return status;
        *out = JsonValue::MakeBool(true);
        return Status();
      }
      case 'f': {
        Status status = ConsumeLiteral("false");
        if (!status.ok()) return status;
        *out = JsonValue::MakeBool(false);
        return Status();
      }
      case 'n': {
        Status status = ConsumeLiteral("null");
        if (!status.ok()) return status;
        *out = JsonValue();
        return Status();
      }
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(std::size_t depth, JsonValue* out) {
    MSQ_CHECK(Consume('{'));
    JsonValue::Object members;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue::MakeObject(std::move(members));
      return Status();
    }
    for (;;) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key");
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      for (const auto& [name, value] : members) {
        if (name == key) return Fail("duplicate object key \"" + key + "\"");
      }
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      status = ParseValue(depth + 1, &value);
      if (!status.ok()) return status;
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}' in object");
    }
    *out = JsonValue::MakeObject(std::move(members));
    return Status();
  }

  Status ParseArray(std::size_t depth, JsonValue* out) {
    MSQ_CHECK(Consume('['));
    JsonValue::Array elements;
    SkipWhitespace();
    if (Consume(']')) {
      *out = JsonValue::MakeArray(std::move(elements));
      return Status();
    }
    for (;;) {
      JsonValue value;
      Status status = ParseValue(depth + 1, &value);
      if (!status.ok()) return status;
      elements.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']' in array");
    }
    *out = JsonValue::MakeArray(std::move(elements));
    return Status();
  }

  // One \uXXXX escape (the backslash and 'u' already consumed). Returns
  // the code unit, or an error on malformed hex.
  Status ParseHex4(unsigned* out) {
    if (text_.size() - pos_ < 4) return Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status();
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    MSQ_CHECK(Consume('"'));
    out->clear();
    for (;;) {
      if (AtEnd()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status();
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (AtEnd()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned unit = 0;
          Status status = ParseHex4(&unit);
          if (!status.ok()) return status;
          if (unit >= 0xDC00 && unit <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          if (unit >= 0xD800 && unit <= 0xDBFF) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (text_.size() - pos_ < 2 || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("lone high surrogate");
            }
            pos_ += 2;
            unsigned low = 0;
            status = ParseHex4(&low);
            if (!status.ok()) return status;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid surrogate pair");
            }
            const unsigned cp =
                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            AppendUtf8(out, cp);
          } else {
            AppendUtf8(out, unit);
          }
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (Consume('-') && AtEnd()) return Fail("truncated number");
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Fail("invalid value");
    }
    // Integer part: a leading zero must stand alone (RFC 8259).
    if (Consume('0')) {
      if (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        return Fail("leading zero in number");
      }
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (Consume('.')) {
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("truncated fraction");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Fail("truncated exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("invalid number");
    if (!std::isfinite(value)) {
      // Overflow to infinity: reject rather than hand the schema layer a
      // non-finite distance/deadline.
      return Fail("number out of range");
    }
    *out = JsonValue::MakeNumber(value);
    return Status();
  }

  std::string_view text_;
  const JsonLimits& limits_;
  std::size_t pos_ = 0;
  std::size_t values_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text,
                              const JsonLimits& limits) {
  if (text.size() > limits.max_bytes) {
    return Status::InvalidArgument(
        "json: input of " + std::to_string(text.size()) +
        " bytes exceeds limit " + std::to_string(limits.max_bytes));
  }
  Parser parser(text, limits);
  return parser.Parse();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  out->append(obs::JsonEscape(s));
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double value) {
  MSQ_CHECK(std::isfinite(value));
  char buf[32];
  std::to_chars_result written;
  if (std::fabs(value) < 1e15 && value == std::trunc(value)) {
    written = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(value));
  } else {
    // The shortest text that parses back to the same double.
    written = std::to_chars(buf, buf + sizeof(buf), value);
  }
  MSQ_CHECK(written.ec == std::errc());
  out->append(buf, written.ptr);
}

}  // namespace msq::serve
