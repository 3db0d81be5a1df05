#pragma once
// Minimal binary (de)serialization helpers for fitted-model persistence.
// Fixed little-endian integer layout and raw IEEE-754 floats, so archives
// are portable across the platforms this library targets. Every reader
// throws std::runtime_error on truncated or mismatching input — model
// loading is expected to validate, not crash.

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace surro::util::io {

inline void write_bytes(std::ostream& os, const void* data, std::size_t n) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(n));
  if (!os) throw std::runtime_error("serialize: write failed");
}

inline void read_bytes(std::istream& is, void* data, std::size_t n) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n) {
    throw std::runtime_error("serialize: unexpected end of stream");
  }
}

inline void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  write_bytes(os, buf, 8);
}

inline std::uint64_t read_u64(std::istream& is) {
  unsigned char buf[8];
  read_bytes(is, buf, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return v;
}

inline void write_u32(std::ostream& os, std::uint32_t v) {
  unsigned char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  write_bytes(os, buf, 4);
}

inline std::uint32_t read_u32(std::istream& is) {
  unsigned char buf[4];
  read_bytes(is, buf, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf[i]) << (8 * i);
  return v;
}

inline void write_i32(std::ostream& os, std::int32_t v) {
  write_u32(os, static_cast<std::uint32_t>(v));
}

inline std::int32_t read_i32(std::istream& is) {
  return static_cast<std::int32_t>(read_u32(is));
}

inline void write_f32(std::ostream& os, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  write_u32(os, bits);
}

inline float read_f32(std::istream& is) {
  const std::uint32_t bits = read_u32(is);
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

inline void write_f64(std::ostream& os, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  write_u64(os, bits);
}

inline double read_f64(std::istream& is) {
  const std::uint64_t bits = read_u64(is);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  if (!s.empty()) write_bytes(os, s.data(), s.size());
}

inline std::string read_string(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  if (n > (1ULL << 32)) {
    throw std::runtime_error("serialize: implausible string length");
  }
  std::string s(static_cast<std::size_t>(n), '\0');
  if (n > 0) read_bytes(is, s.data(), static_cast<std::size_t>(n));
  return s;
}

/// Element-count prefix with a plausibility bound, so a corrupted length
/// field fails with the promised std::runtime_error instead of attempting a
/// huge up-front allocation. 2^26 elements (512 MiB of f64) is far above
/// any legitimate vector payload in this library; matrices get their own
/// (larger) product bound in linalg::load_matrix.
inline constexpr std::uint64_t kMaxSerializedElements = 1ULL << 26;

inline std::size_t read_count(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  if (n > kMaxSerializedElements) {
    throw std::runtime_error("serialize: implausible element count");
  }
  return static_cast<std::size_t>(n);
}

/// Fixed 4-byte structural tag; mismatch means a corrupt or foreign stream.
inline void write_tag(std::ostream& os, const char (&tag)[5]) {
  write_bytes(os, tag, 4);
}

inline void expect_tag(std::istream& is, const char (&tag)[5]) {
  char buf[4];
  read_bytes(is, buf, 4);
  if (std::memcmp(buf, tag, 4) != 0) {
    throw std::runtime_error(std::string("serialize: expected tag '") + tag +
                             "'");
  }
}

inline void write_vec_f64(std::ostream& os, const std::vector<double>& v) {
  write_u64(os, v.size());
  for (const double x : v) write_f64(os, x);
}

inline std::vector<double> read_vec_f64(std::istream& is) {
  std::vector<double> v(read_count(is));
  for (auto& x : v) x = read_f64(is);
  return v;
}

inline void write_vec_i32(std::ostream& os, const std::vector<std::int32_t>& v) {
  write_u64(os, v.size());
  for (const std::int32_t x : v) write_i32(os, x);
}

inline std::vector<std::int32_t> read_vec_i32(std::istream& is) {
  std::vector<std::int32_t> v(read_count(is));
  for (auto& x : v) x = read_i32(is);
  return v;
}

inline void write_vec_string(std::ostream& os,
                             const std::vector<std::string>& v) {
  write_u64(os, v.size());
  for (const auto& s : v) write_string(os, s);
}

inline std::vector<std::string> read_vec_string(std::istream& is) {
  std::vector<std::string> v(read_count(is));
  for (auto& s : v) s = read_string(is);
  return v;
}

}  // namespace surro::util::io
