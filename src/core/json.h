#ifndef HEPQUERY_CORE_JSON_H_
#define HEPQUERY_CORE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/status.h"

namespace hepq::json {

// Minimal JSON document model, recursive-descent parser and writer, for
// the repo's own machine-readable outputs (BENCH_*.json,
// bench/baselines/*.json, RunReport JSON, traces) without external
// dependencies. Numbers are doubles (the writer spells every double so it
// reads back bit-exactly); object key order is preserved.
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

// The writer below emits every JSON document of the libraries, benches and
// tools (RunReports, Chrome traces, BENCH_*.json, laq_inspect --json, doc
// items; perfbench's harness keeps its own), one rule per kind of value:
//   - strings go through AppendJsonString (quote, backslash and control
//     bytes escaped, every other byte verbatim);
//   - numbers are the shortest decimal that reads back as the same double
//     (std::to_chars), integers exact;
//   - NaN and +-inf, which JSON cannot spell, are written as null.

/// Appends `s` as a quoted JSON string literal.
void AppendJsonString(std::string* out, std::string_view s);

/// Appends `v` as a JSON number, or null when it is not finite.
void AppendJsonNumber(std::string* out, double v);

/// Comma-managing writer for one JSON object or array appended to `out`.
/// Object()/Array() write the opening bracket and the destructor the
/// closing one, so nested scopes close in reverse order of opening. Object
/// members go through the key methods, which return the scope so a record
/// can be written as one chained expression; array elements and nested
/// scopes are written at the cursor Sep() (element) or Key() (member)
/// returns.
class JsonScope {
 public:
  static JsonScope Object(std::string* out) { return JsonScope(out, '{', '}'); }
  static JsonScope Array(std::string* out) { return JsonScope(out, '[', ']'); }
  ~JsonScope();
  JsonScope(const JsonScope&) = delete;
  JsonScope& operator=(const JsonScope&) = delete;

  /// Writes the separator before the next array element.
  std::string* Sep();
  /// Writes the separator and `key` before the next member's value.
  std::string* Key(std::string_view key);

  JsonScope& Int(std::string_view key, int64_t v);
  JsonScope& UInt(std::string_view key, uint64_t v);
  JsonScope& Num(std::string_view key, double v);
  JsonScope& Str(std::string_view key, std::string_view v);
  JsonScope& Bool(std::string_view key, bool v);

 private:
  JsonScope(std::string* out, char open, char close);

  std::string* out_;
  char close_;
  bool first_ = true;
};

}  // namespace hepq::json

#endif  // HEPQUERY_CORE_JSON_H_
