#pragma once
// Minimal JSON reader, the consuming counterpart of util/json.hpp. The
// library stayed writer-only until the serving layer needed to replay
// request scripts (`surro_cli serve --script requests.jsonl`), which makes
// JSON an *input* format for the first time. The parser is a strict
// recursive-descent reader over a DOM of JsonValue nodes — small documents
// only (request scripts, test round-trips), so no streaming, no SIMD, and
// every malformed input fails with std::runtime_error rather than a
// best-effort guess.

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace surro::util {

/// One node of a parsed JSON document. Exactly one of the payload fields is
/// meaningful, selected by `kind`; the accessors below throw on kind
/// mismatches so consumers surface schema errors instead of reading zeros.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }

  /// Object member lookup; throws std::runtime_error when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  /// True when this is an object that has `key`.
  [[nodiscard]] bool has(const std::string& key) const noexcept;

  /// Checked scalar reads (throw std::runtime_error on kind mismatch).
  [[nodiscard]] double as_number() const;
  /// A whole number in [min, max], or std::runtime_error: the one read of
  /// a count, cursor or seed, so no caller casts an out-of-range or
  /// fractional double. Keep both bounds within +-2^53, where a double is
  /// exact.
  [[nodiscard]] std::int64_t as_integer(std::int64_t min,
                                        std::int64_t max) const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] bool as_bool() const;

  /// Object member with a fallback when the key is absent (the member, when
  /// present, must still have the right kind).
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;
};

/// What a parse rejected and where. Subclasses std::runtime_error so every
/// pre-existing catch site keeps working; new consumers (the HTTP front
/// end) can catch the typed form and surface the offset.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  /// Byte offset into the document where the parse failed.
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Hostile-input bounds for documents that arrive over the network (the
/// HTTP front end mirrors its body cap here so the framing layer and the
/// parser agree on "too big").
struct JsonLimits {
  /// Maximum document size in bytes; 0 = unlimited (trusted local input).
  std::size_t max_bytes = 0;
  /// Maximum container nesting. The parser is recursive-descent, so depth
  /// is stack depth; the cap turns a hostile "[[[[..." into a JsonParseError
  /// instead of a stack overflow.
  std::size_t max_depth = 128;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws JsonParseError (a std::runtime_error) with a byte offset on
/// malformed input. Strict by design — the checks network input relies on:
///   * containers nest at most `limits.max_depth` levels;
///   * a document longer than `limits.max_bytes` (when nonzero) is refused
///     before any parsing work;
///   * strings must be valid UTF-8 (overlong encodings, surrogate bytes,
///     and truncated sequences are rejected) with control characters
///     < 0x20 escaped, exactly as util::json_escape writes them.
[[nodiscard]] JsonValue parse_json(std::string_view text,
                                   const JsonLimits& limits);
/// Default limits: no byte cap (trusted local input), depth 128.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace surro::util
