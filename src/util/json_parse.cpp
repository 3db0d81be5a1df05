#include "util/json_parse.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace surro::util {
namespace {

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    default: return "object";
  }
}

[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
  throw std::runtime_error(std::string("json: expected ") + want + ", have " +
                           kind_name(got));
}

class Parser {
 public:
  Parser(std::string_view text, const JsonLimits& limits)
      : s_(text), limits_(limits) {}

  JsonValue parse() {
    // The byte cap is judged before any parsing work: a hostile megabyte
    // document costs O(1) to refuse, not O(n) to half-parse.
    if (limits_.max_bytes != 0 && s_.size() > limits_.max_bytes) {
      throw JsonParseError(
          "json: document of " + std::to_string(s_.size()) +
              " bytes exceeds the " + std::to_string(limits_.max_bytes) +
              "-byte limit",
          0);
    }
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content after document");
    return v;
  }

 private:
  /// RAII depth ticket: value() holds one per container level. The parser
  /// is recursive-descent, so nesting depth is stack depth; without the
  /// cap a hostile "[[[[..." ten thousand levels down overflows the stack
  /// instead of failing the parse.
  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > parser_.limits_.max_depth) {
        parser_.fail("nesting deeper than " +
                     std::to_string(parser_.limits_.max_depth) + " levels");
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser_;
  };
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("json: " + what + " at offset " +
                             std::to_string(pos_),
                         pos_);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// Four hex digits of a \u escape -> code unit.
  unsigned hex4() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    const DepthGuard depth(*this);
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (consume('}')) return v;
    do {
      if (peek() != '"') fail("object key must be a string");
      JsonValue key = string_value();
      expect(':');
      v.object.insert_or_assign(std::move(key.string), value());
    } while (consume(','));
    expect('}');
    return v;
  }

  JsonValue array() {
    const DepthGuard depth(*this);
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (consume(']')) return v;
    do {
      v.array.push_back(value());
    } while (consume(','));
    expect(']');
    return v;
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            unsigned code = hex4();
            // The writer only ever emits \u00XX (control characters);
            // decode anything larger to UTF-8 so foreign documents still
            // parse — including UTF-16 surrogate pairs for non-BMP
            // characters (a lone surrogate is malformed input).
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                  s_[pos_ + 1] != 'u') {
                fail("high surrogate without a \\u low surrogate");
              }
              pos_ += 2;
              const unsigned low = hex4();
              if (low < 0xDC00 || low > 0xDFFF) {
                fail("high surrogate followed by a non-low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              fail("lone low surrogate");
            }
            if (code < 0x80) {
              c = static_cast<char>(code);
            } else {
              if (code < 0x800) {
                v.string += static_cast<char>(0xC0 | (code >> 6));
              } else if (code < 0x10000) {
                v.string += static_cast<char>(0xE0 | (code >> 12));
                v.string += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              } else {
                v.string += static_cast<char>(0xF0 | (code >> 18));
                v.string += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
                v.string += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              }
              c = static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        const unsigned char u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          // RFC 8259 requires control characters to be escaped; the writer
          // escapes them (json_escape), so a raw one is malformed input.
          --pos_;
          fail("raw control character in string (escape it as \\u00XX)");
        }
        if (u >= 0x80) {
          --pos_;
          utf8_sequence(v.string);
          continue;
        }
      }
      v.string += c;
    }
    expect('"');
    return v;
  }

  /// Validate + copy one multi-byte UTF-8 sequence starting at pos_.
  /// Rejects stray continuation bytes, overlong encodings, surrogate code
  /// points (0xED 0xA0.. — valid only as \u escape pairs), anything past
  /// U+10FFFF, and truncation.
  void utf8_sequence(std::string& out) {
    const unsigned char lead = static_cast<unsigned char>(s_[pos_]);
    std::size_t len = 0;
    unsigned char min_second = 0x80;
    unsigned char max_second = 0xBF;
    if (lead >= 0xC2 && lead <= 0xDF) {
      len = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      len = 3;
      if (lead == 0xE0) min_second = 0xA0;  // overlong
      if (lead == 0xED) max_second = 0x9F;  // UTF-16 surrogate range
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      len = 4;
      if (lead == 0xF0) min_second = 0x90;  // overlong
      if (lead == 0xF4) max_second = 0x8F;  // past U+10FFFF
    } else {
      // 0x80..0xBF (stray continuation) or 0xC0/0xC1/0xF5..0xFF (never
      // valid leads).
      fail("invalid UTF-8 byte in string");
    }
    if (pos_ + len > s_.size()) fail("truncated UTF-8 sequence in string");
    for (std::size_t i = 1; i < len; ++i) {
      const unsigned char b = static_cast<unsigned char>(s_[pos_ + i]);
      const unsigned char lo = i == 1 ? min_second : 0x80;
      const unsigned char hi = i == 1 ? max_second : 0xBF;
      if (b < lo || b > hi) {
        fail("invalid UTF-8 continuation byte in string");
      }
    }
    out.append(s_.substr(pos_, len));
    pos_ += len;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (literal("true")) v.boolean = true;
    else if (literal("false")) v.boolean = false;
    else fail("bad literal");
    return v;
  }

  JsonValue null() {
    if (!literal("null")) fail("bad literal");
    return JsonValue{};
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '+' || s_[pos_] == '-' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const auto res = std::from_chars(s_.data() + start, s_.data() + pos_,
                                     v.number);
    if (res.ec != std::errc{} || res.ptr != s_.data() + pos_ ||
        pos_ == start) {
      pos_ = start;
      fail("bad number");
    }
    return v;
  }

  std::string_view s_;
  JsonLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // current container nesting (<= limits_.max_depth)
};

}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind != Kind::kObject) kind_error("object", kind);
  const auto it = object.find(key);
  if (it == object.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

bool JsonValue::has(const std::string& key) const noexcept {
  return kind == Kind::kObject && object.contains(key);
}

double JsonValue::as_number() const {
  if (kind != Kind::kNumber) kind_error("number", kind);
  return number;
}

std::int64_t JsonValue::as_integer(std::int64_t min, std::int64_t max) const {
  const double v = as_number();
  if (!(v >= static_cast<double>(min) && v <= static_cast<double>(max)) ||
      v != std::floor(v)) {
    throw std::runtime_error("json: expected a whole number in [" +
                             std::to_string(min) + ", " +
                             std::to_string(max) + "]");
  }
  return static_cast<std::int64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) kind_error("string", kind);
  return string;
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) kind_error("bool", kind);
  return boolean;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  return has(key) ? at(key).as_number() : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

JsonValue parse_json(std::string_view text, const JsonLimits& limits) {
  return Parser(text, limits).parse();
}

JsonValue parse_json(std::string_view text) {
  return parse_json(text, JsonLimits{});
}

}  // namespace surro::util
