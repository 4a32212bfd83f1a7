// Minimal JSON reader for report.json and trace files — the same spirit as
// config/yaml_lite.h: just enough of the grammar for the documents this
// repository writes itself, with no external dependency.
//
// Supported: objects, arrays, strings (with the common escapes), integers
// from INT64_MIN to UINT64_MAX, doubles, booleans, null. Object keys keep
// insertion order irrelevant: storage is a sorted std::map, matching how
// reports are serialized.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace lumina::telemetry {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  bool as_bool() const;
  /// Doubles truncate; throws JsonError above INT64_MAX.
  std::int64_t as_int() const;
  /// Integers only; throws JsonError on a negative value.
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup that throws JsonError when absent.
  const JsonValue& at(const std::string& key) const;

  // Construction (used by the parser; tests build values directly too).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_int(std::int64_t v);
  static JsonValue make_uint(std::uint64_t v);
  static JsonValue make_double(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> v);
  static JsonValue make_object(std::map<std::string, JsonValue> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  /// kInt: the value's 64 bits, read as int64 when `negative_` is set and
  /// as uint64 otherwise.
  std::uint64_t int_ = 0;
  bool negative_ = false;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document; throws JsonError with position context.
JsonValue parse_json(const std::string& text);

}  // namespace lumina::telemetry
