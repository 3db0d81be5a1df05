#include "util/csv.hpp"

#include <stdexcept>

namespace surro::util {

std::size_t CsvDocument::column_index(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  return npos;
}

namespace {

// State-machine record reader: consumes one logical CSV record (which may
// span physical lines inside quotes) starting at `pos`.
std::vector<std::string> parse_record(std::string_view text,
                                      std::size_t& pos) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  while (pos < text.size()) {
    const char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          field += '"';
          pos += 2;
        } else {
          in_quotes = false;
          ++pos;
        }
      } else {
        field += c;
        ++pos;
      }
      saw_any = true;
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        saw_any = true;
        ++pos;
        break;
      case ',':
        fields.push_back(std::move(field));
        field.clear();
        saw_any = true;
        ++pos;
        break;
      case '\r':
        ++pos;
        break;
      case '\n':
        ++pos;
        fields.push_back(std::move(field));
        return fields;
      default:
        field += c;
        saw_any = true;
        ++pos;
        break;
    }
  }
  if (in_quotes) throw std::runtime_error("csv: unclosed quote");
  if (saw_any || !fields.empty()) fields.push_back(std::move(field));
  return fields;
}

}  // namespace

CsvDocument parse_csv(std::string_view text, bool has_header) {
  CsvDocument doc;
  std::size_t pos = 0;
  bool first = true;
  while (pos < text.size()) {
    auto record = parse_record(text, pos);
    if (record.empty()) continue;
    if (first && has_header) {
      doc.header = std::move(record);
      first = false;
      continue;
    }
    first = false;
    if (!doc.header.empty() && record.size() != doc.header.size()) {
      throw std::runtime_error("csv: ragged row (expected " +
                               std::to_string(doc.header.size()) + " fields, got " +
                               std::to_string(record.size()) + ")");
    }
    if (!doc.rows.empty() && record.size() != doc.rows.front().size()) {
      throw std::runtime_error("csv: ragged row");
    }
    doc.rows.push_back(std::move(record));
  }
  if (!has_header && !doc.rows.empty()) {
    doc.header.resize(doc.rows.front().size());
    for (std::size_t i = 0; i < doc.header.size(); ++i) {
      doc.header[i] = "col" + std::to_string(i);
    }
  }
  return doc;
}

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string to_csv(const CsvDocument& doc) {
  std::string out;
  const auto emit_row = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += csv_escape(row[i]);
    }
    out += '\n';
  };
  if (!doc.header.empty()) emit_row(doc.header);
  for (const auto& row : doc.rows) emit_row(row);
  return out;
}

}  // namespace surro::util
