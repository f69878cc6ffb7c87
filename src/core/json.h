#ifndef HEPQUERY_CORE_JSON_H_
#define HEPQUERY_CORE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"

namespace hepq::json {

// Minimal JSON document model + recursive-descent parser, for tooling
// that must read the repo's own machine-readable outputs (BENCH_*.json,
// bench/baselines/*.json, RunReport JSON) without external dependencies.
// Numbers are doubles (every producer in this repo emits values a double
// holds exactly at the precision written); object key order is preserved.
//
// The parser takes the RFC 8259 grammar and nothing more: no inf/nan, hex,
// leading zeros or numbers beyond a double's range, no raw control
// characters or lone surrogate escapes in strings. String bytes outside
// escapes are kept verbatim, so whatever AppendJsonString wrote reads back.

/// Arrays and objects nest at most this deep; one level more is an error.
inline constexpr int kMaxDepth = 64;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  std::vector<JsonValue>& array_items() { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }
  std::vector<std::pair<std::string, JsonValue>>& object_items() {
    return object_;
  }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* Find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Errors carry the byte offset of the offending input.
Result<JsonValue> ParseJson(const std::string& text);

/// ParseJson over a file's entire contents.
Result<JsonValue> ParseJsonFile(const std::string& path);

/// Appends `s` as a quoted JSON string literal (quote, backslash and
/// control characters escaped) — the one string writer behind every JSON
/// document the repo emits.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace hepq::json

#endif  // HEPQUERY_CORE_JSON_H_
