#include "net/auth.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/stringx.hpp"

namespace surro::net {

TokenBucket::TokenBucket(double rps, double burst)
    : rps_(rps > 0.0 ? rps : 0.0),
      burst_(burst > 0.0 ? burst : std::max(1.0, rps_)),
      tokens_(burst_) {}

bool TokenBucket::try_take(double now_seconds, double* retry_after) {
  if (rps_ <= 0.0) return true;  // unlimited
  if (now_seconds > last_) {
    tokens_ = std::min(burst_, tokens_ + (now_seconds - last_) * rps_);
    last_ = now_seconds;
  }
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  if (retry_after != nullptr) *retry_after = (1.0 - tokens_) / rps_;
  return false;
}

QuotaLedger::QuotaLedger(double default_rps, double default_burst)
    : default_rps_(default_rps > 0.0 ? default_rps : 0.0),
      default_burst_(default_burst) {}

void QuotaLedger::add_key(const std::string& key, std::optional<double> rps) {
  if (key.empty()) throw std::invalid_argument("quota: empty API key");
  const std::lock_guard<std::mutex> lock(mutex_);
  keys_[key] = rps.value_or(default_rps_);
}

void QuotaLedger::load_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot read API keys file " + path);
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    const auto fields = util::split_list(line, ' ');
    if (fields.empty() || fields.front().front() == '#') continue;
    std::optional<double> rps;
    if (fields.size() > 1) {
      double value = 0.0;
      if (!util::parse_double(fields[1], value) || value < 0.0) {
        throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                 ": bad per-key rate '" + fields[1] + "'");
      }
      rps = value;
    }
    if (fields.size() > 2) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": trailing fields after key and rate");
    }
    add_key(fields.front(), rps);
  }
}

bool QuotaLedger::open_access() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return keys_.empty();
}

bool QuotaLedger::authorized(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (keys_.empty()) return true;
  return keys_.contains(key);
}

bool QuotaLedger::charge(const std::string& key, double now_seconds,
                         double* retry_after) {
  const std::lock_guard<std::mutex> lock(mutex_);
  double rps = default_rps_;
  if (const auto it = keys_.find(key); it != keys_.end()) rps = it->second;
  auto bucket = buckets_.find(key);
  if (bucket == buckets_.end()) {
    bucket = buckets_.emplace(key, TokenBucket(rps, default_burst_)).first;
  }
  return bucket->second.try_take(now_seconds, retry_after);
}

std::size_t QuotaLedger::num_keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return keys_.size();
}

}  // namespace surro::net
