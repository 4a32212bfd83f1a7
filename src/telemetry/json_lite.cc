#include "telemetry/json_lite.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace lumina::telemetry {

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ == Kind::kInt) {
    const auto v = static_cast<std::int64_t>(int_);
    if (!negative_ && v < 0) throw JsonError("integer out of int64 range");
    return v;
  }
  if (kind_ == Kind::kDouble) return static_cast<std::int64_t>(double_);
  throw JsonError("not a number");
}

std::uint64_t JsonValue::as_uint() const {
  if (kind_ != Kind::kInt) throw JsonError("not an integer");
  if (negative_) throw JsonError("negative value where unsigned expected");
  return int_;
}

double JsonValue::as_double() const {
  if (kind_ == Kind::kInt) {
    return negative_ ? static_cast<double>(static_cast<std::int64_t>(int_))
                     : static_cast<double>(int_);
  }
  if (kind_ == Kind::kDouble) return double_;
  throw JsonError("not a number");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw JsonError("not an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) throw JsonError("not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw JsonError("missing key '" + key + "'");
  return *v;
}

JsonValue JsonValue::make_bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::make_int(std::int64_t v) {
  JsonValue out;
  out.kind_ = Kind::kInt;
  out.int_ = static_cast<std::uint64_t>(v);
  out.negative_ = v < 0;
  return out;
}

JsonValue JsonValue::make_uint(std::uint64_t v) {
  JsonValue out;
  out.kind_ = Kind::kInt;
  out.int_ = v;
  return out;
}

JsonValue JsonValue::make_double(double v) {
  JsonValue out;
  out.kind_ = Kind::kDouble;
  out.double_ = v;
  return out;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> v) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> v) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(v);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream msg;
    msg << "json: " << what << " at line " << line << ", column " << col;
    throw JsonError(msg.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue::make_string(parse_string());
    if (consume_literal("true")) return JsonValue::make_bool(true);
    if (consume_literal("false")) return JsonValue::make_bool(false);
    if (consume_literal("null")) return JsonValue::make_null();
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const unsigned long code =
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // ASCII only — sufficient for everything this repo writes.
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    if (!is_double) {
      // Negative integers parse as int64 and the rest as uint64, so u64
      // counters (FNV digests among them) keep their full range.
      char* end = nullptr;
      const JsonValue v =
          token[0] == '-'
              ? JsonValue::make_int(std::strtoll(token.c_str(), &end, 10))
              : JsonValue::make_uint(std::strtoull(token.c_str(), &end, 10));
      if (end != token.c_str() + token.size() || errno == ERANGE) {
        fail("malformed integer '" + token + "'");
      }
      return v;
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("malformed number '" + token + "'");
    }
    return JsonValue::make_double(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace lumina::telemetry
