#pragma once
// RFC-4180-ish CSV reading/writing: quoted fields with embedded commas,
// quotes, and newlines are supported. Used for table I/O and for dumping
// figure series that downstream plotting scripts consume.

#include <string>
#include <string_view>
#include <vector>

namespace surro::util {

struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows.size(); }
  [[nodiscard]] std::size_t num_cols() const noexcept {
    return header.size();
  }
  /// Index of a header column, or npos.
  [[nodiscard]] std::size_t column_index(std::string_view name) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Parse CSV text. Throws std::runtime_error on ragged rows or an unclosed
/// quote. `has_header` controls whether the first record populates header.
[[nodiscard]] CsvDocument parse_csv(std::string_view text,
                                    bool has_header = true);

/// Serialize with minimal quoting (only when a field needs it).
[[nodiscard]] std::string to_csv(const CsvDocument& doc);

/// Quote a single field if needed (exposed for streaming writers).
[[nodiscard]] std::string csv_escape(std::string_view field);

}  // namespace surro::util
