#include "core/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hepq::json {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Hand-rolled recursive-descent parser for the RFC 8259 grammar.
/// Depth-capped so adversarial nesting cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    HEPQ_ASSIGN_OR_RETURN(value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::Corruption("JSON parse error at byte " +
                              std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  Result<JsonValue> ParseValue(int depth) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      return Error("nesting too deep");
    }
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      std::string s;
      HEPQ_ASSIGN_OR_RETURN(s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (ConsumeLiteral("true")) return JsonValue::Bool(true);
    if (ConsumeLiteral("false")) return JsonValue::Bool(false);
    if (ConsumeLiteral("null")) return JsonValue::Null();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(std::string("unexpected character '") + c + "'");
  }

  /// Number grammar `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`
  /// is checked here, so strtod only ever sees the matched decimal literal
  /// (never inf, nan, hex or a leading zero); one that overflows a double
  /// is rejected rather than read as infinity.
  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    auto digits = [&] {
      const size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ - from;
    };
    Consume('-');
    if (Consume('0')) {
      if (digits() != 0) return Error("malformed number (leading zero)");
    } else if (digits() == 0) {
      return Error("malformed number");
    }
    if (Consume('.') && digits() == 0) return Error("malformed number");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (digits() == 0) return Error("malformed number");
    }
    const std::string literal = text_.substr(start, pos_ - start);
    const double value = std::strtod(literal.c_str(), nullptr);
    if (!std::isfinite(value)) return Error("number out of range");
    return JsonValue::Number(value);
  }

  /// The four hex digits of a \u escape.
  Status ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') *code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') *code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') *code |= static_cast<unsigned>(h - 'A' + 10);
      else return Error("bad \\u escape digit");
    }
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          HEPQ_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("lone low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate must pair with a low one: together they
            // name one code point above the BMP.
            unsigned low = 0;
            if (!ConsumeLiteral("\\u")) {
              return Error("lone high surrogate in \\u escape");
            }
            HEPQ_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("lone high surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(&out, code);
          break;
        }
        default:
          return Error(std::string("bad escape '\\") + esc + "'");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return array;
    for (;;) {
      JsonValue item;
      HEPQ_ASSIGN_OR_RETURN(item, ParseValue(depth + 1));
      array.array_items().push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return array;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return object;
    for (;;) {
      SkipWhitespace();
      std::string key;
      HEPQ_ASSIGN_OR_RETURN(key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      HEPQ_ASSIGN_OR_RETURN(value, ParseValue(depth + 1));
      object.object_items().emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return object;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

Result<JsonValue> ParseJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  auto parsed = ParseJson(text);
  if (!parsed.ok()) {
    return Status::Corruption("'" + path +
                              "': " + parsed.status().message());
  }
  return parsed;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace hepq::json
