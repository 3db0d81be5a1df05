#pragma once
// Small string helpers used by CSV I/O, nomenclature parsing, and report
// formatting. Kept allocation-light: views in, owned strings only when the
// caller keeps the result.

#include <string>
#include <string_view>
#include <vector>

namespace surro::util {

/// Split on a single-character delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// A delimited list ("a, b,,c") as its trimmed, non-empty entries: the one
/// splitter of command-line lists and inline request specs.
[[nodiscard]] std::vector<std::string> split_list(std::string_view s,
                                                  char delim);

/// "key = value" split at the first '=' into trimmed halves; false (and
/// `key`, `value` untouched) when there is no '='.
[[nodiscard]] bool split_key_value(std::string_view s, std::string& key,
                                   std::string& value);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view s,
                             std::string_view suffix) noexcept;

/// Lowercase copy (ASCII).
[[nodiscard]] std::string to_lower(std::string_view s);

/// Parse a double; returns false on any trailing garbage or empty input.
[[nodiscard]] bool parse_double(std::string_view s, double& out) noexcept;
/// Parse a 64-bit signed integer with the same strictness.
[[nodiscard]] bool parse_int64(std::string_view s,
                               long long& out) noexcept;

/// Human-readable byte count ("3.2 GB").
[[nodiscard]] std::string format_bytes(double bytes);

}  // namespace surro::util
