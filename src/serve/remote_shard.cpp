#include "serve/remote_shard.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <utility>

#include "net/error_map.hpp"
#include "util/json_parse.hpp"

namespace surro::serve {

RemoteShardConfig parse_remote_endpoint(const std::string& spec) {
  RemoteShardConfig cfg;
  const std::size_t colon = spec.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  if (colon != std::string::npos && colon > 0) cfg.host = spec.substr(0, colon);
  unsigned port = 0;
  const auto res = std::from_chars(port_text.data(),
                                   port_text.data() + port_text.size(), port);
  if (res.ec != std::errc{} || res.ptr != port_text.data() + port_text.size() ||
      port == 0 || port > 65535) {
    throw std::invalid_argument("bad endpoint '" + spec +
                                "' (want host:port)");
  }
  cfg.port = static_cast<std::uint16_t>(port);
  return cfg;
}

RemoteShard::RemoteShard(RemoteShardConfig cfg)
    : cfg_(std::move(cfg)), control_(cfg_.host, cfg_.port, cfg_.api_key,
                                     cfg_.http) {
  const std::size_t n = std::max<std::size_t>(cfg_.harvest_threads, 1);
  harvesters_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    harvesters_.emplace_back([this] { harvest_loop(); });
  }
}

RemoteShard::~RemoteShard() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& t : harvesters_) t.join();
  // Tasks the harvesters never picked up: fail their futures so no caller
  // blocks forever on a destroyed shard.
  for (auto& task : tasks_) {
    task.promise->set_exception(std::make_exception_ptr(
        std::logic_error("remote shard shutting down")));
  }
}

Submitted RemoteShard::submit_job(SampleJob job) {
  std::uint64_t id = 0;
  try {
    const std::lock_guard lock(control_mutex_);
    id = control_.submit(job);
  } catch (const net::ApiError& e) {
    // Rebuild the typed in-process error surface from the wire code.
    ServiceError::Code code;
    if (net::parse_service_error_code(e.code(), code)) {
      throw ServiceError(code, e.what());
    }
    if (e.code() == "shutting_down") throw std::logic_error(e.what());
    if (e.code() == "unknown_model") {
      // A local submit surfaces an unknown key on the future, not at
      // submit time; mirror that so pool routing semantics match.
      auto promise = std::make_shared<std::promise<SampleResult>>();
      promise->set_exception(std::make_exception_ptr(
          std::invalid_argument(std::string(e.what()))));
      Submitted out;
      out.job_id = 0;
      out.future = promise->get_future();
      return out;
    }
    throw;
  }
  // Progress callbacks cannot cross the wire; the job still runs, the
  // callback is just never invoked.

  auto promise = std::make_shared<std::promise<SampleResult>>();
  Submitted out;
  out.job_id = id;
  out.future = promise->get_future();
  {
    const std::lock_guard lock(mutex_);
    tasks_.push_back(HarvestTask{id, std::move(promise)});
    ++pending_;
  }
  task_ready_.notify_one();
  return out;
}

void RemoteShard::finish_one() {
  const std::lock_guard lock(mutex_);
  --pending_;
  idle_.notify_all();
}

void RemoteShard::harvest_loop() {
  // Each harvester owns its connection: page downloads from different jobs
  // proceed concurrently without serializing on the control client.
  net::ApiClient api(cfg_.host, cfg_.port, cfg_.api_key, cfg_.http);
  for (;;) {
    HarvestTask task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and nothing left to do
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    try {
      net::RemoteResult r =
          api.wait_result(task.job_id, cfg_.page_rows, cfg_.poll_wait_ms);
      SampleResult result;
      result.table = std::move(r.table);
      result.model_key = std::move(r.model_key);
      result.queue_seconds = r.queue_seconds;
      result.sample_seconds = r.sample_seconds;
      result.total_seconds = r.total_seconds;
      result.cache_hit = r.cache_hit;
      task.promise->set_value(std::move(result));
    } catch (const net::ApiError& e) {
      ServiceError::Code code;
      if (net::parse_service_error_code(e.code(), code)) {
        task.promise->set_exception(
            std::make_exception_ptr(ServiceError(code, e.what())));
      } else {
        task.promise->set_exception(std::current_exception());
      }
    } catch (...) {
      // TransportError and anything else: surface verbatim.
      task.promise->set_exception(std::current_exception());
    }
    finish_one();
  }
}

bool RemoteShard::cancel(std::uint64_t job_id) {
  try {
    const std::lock_guard lock(control_mutex_);
    return control_.cancel(job_id);
  } catch (const std::exception&) {
    // Unknown job (404), already resolved, or an unreachable worker: the
    // in-process contract answers false for "nothing left to cancel".
    return false;
  }
}

void RemoteShard::drain() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t RemoteShard::queue_depth() const {
  const std::lock_guard lock(mutex_);
  return pending_;
}

const ServiceConfig& RemoteShard::config() const noexcept {
  return service_cfg_;
}

ServiceStats RemoteShard::stats() const {
  ServiceStats out;
  std::string body;
  try {
    const std::lock_guard lock(control_mutex_);
    body = control_.stats_json();
  } catch (const std::exception&) {
    const std::lock_guard lock(mutex_);
    out.queue_depth = pending_;
    return out;
  }
  try {
    const auto doc = util::parse_json(body);
    out = read_service_stats(doc);
    out.uptime_seconds = doc.number_or("uptime_seconds", 0.0);
  } catch (const std::exception&) {
    // A stats document this client cannot decode degrades to zeros; the
    // data plane (submit/harvest) is where correctness is enforced.
  }
  return out;
}

std::vector<std::string> RemoteShard::model_keys() const {
  std::vector<std::string> keys;
  try {
    const std::lock_guard lock(control_mutex_);
    keys = control_.models();
  } catch (const std::exception&) {
    const std::lock_guard lock(mutex_);
    return model_keys_cache_.value_or(std::vector<std::string>{});
  }
  // The cache is guarded by mutex_ on every touch (control_mutex_ only
  // serializes the wire call above) so success and fallback paths never
  // race on the same member under different locks.
  const std::lock_guard lock(mutex_);
  model_keys_cache_ = keys;
  return keys;
}

bool RemoteShard::has_model(const std::string& key) const {
  const auto keys = model_keys();
  for (const auto& k : keys) {
    if (k == key) return true;
  }
  return false;
}

bool RemoteShard::model_resident(const std::string& key) const {
  std::string body;
  try {
    const std::lock_guard lock(control_mutex_);
    body = control_.http().request("GET", "/v1/models", "",
                                   cfg_.api_key.empty()
                                       ? std::map<std::string, std::string>{}
                                       : std::map<std::string, std::string>{
                                             {"x-api-key", cfg_.api_key}})
               .body;
    const auto doc = util::parse_json(body);
    for (const auto& model : doc.at("models").array) {
      if (model.at("key").as_string() == key) {
        return model.at("resident").as_bool();
      }
    }
  } catch (const std::exception&) {
  }
  return false;
}

bool RemoteShard::healthy(double timeout_seconds) const {
  const std::lock_guard lock(control_mutex_);
  return control_.healthy(timeout_seconds);
}

}  // namespace surro::serve
