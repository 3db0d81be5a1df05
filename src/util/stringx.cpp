#include "util/stringx.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace surro::util {

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && is_space(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_list(std::string_view s, char delim) {
  std::vector<std::string> out;
  for (const auto entry : split(s, delim)) {
    if (const auto trimmed = trim(entry); !trimmed.empty()) {
      out.emplace_back(trimmed);
    }
  }
  return out;
}

bool split_key_value(std::string_view s, std::string& key,
                     std::string& value) {
  const auto eq = s.find('=');
  if (eq == std::string_view::npos) return false;
  key = trim(s.substr(0, eq));
  value = trim(s.substr(eq + 1));
  return true;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool parse_double(std::string_view s, double& out) noexcept {
  s = trim(s);
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_int64(std::string_view s, long long& out) noexcept {
  s = trim(s);
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::string format_bytes(double bytes) {
  static constexpr const char* kUnits[] = {"B",  "KB", "MB", "GB",
                                           "TB", "PB", "EB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 6) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, kUnits[unit]);
  return buf;
}

}  // namespace surro::util
