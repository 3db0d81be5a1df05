#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace surro::net {

namespace {

/// Responses get the header cap a request gets, and a body cap 50 times
/// the largest reply the server sends (a 10,000-row result page, about
/// 1.2 MB of JSON).
constexpr HttpLimits kResponseLimits{.max_body_bytes = std::size_t{64} << 20};

}  // namespace

const char* transport_error_kind_name(TransportError::Kind kind) noexcept {
  switch (kind) {
    case TransportError::Kind::kConnect: return "connect";
    case TransportError::Kind::kTimeout: return "timeout";
    case TransportError::Kind::kClosed: return "closed";
    case TransportError::Kind::kMalformed: return "malformed";
  }
  return "transport";
}

const char* TransportError::kind_name() const noexcept {
  return transport_error_kind_name(kind_);
}

HttpClient::HttpClient(std::string host, std::uint16_t port,
                       double timeout_seconds)
    : host_(std::move(host)), port_(port) {
  cfg_.timeout_seconds = timeout_seconds;
}

HttpClient::HttpClient(std::string host, std::uint16_t port, ClientConfig cfg)
    : host_(std::move(host)), port_(port), cfg_(cfg) {}

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void HttpClient::connect() {
  // Reconnect-with-backoff: a refused/unreachable connect is retried with
  // exponential delays, so a worker that is mid-spawn or mid-restart gets
  // a grace window. The per-attempt errors fold into the final throw.
  const std::size_t attempts = std::max<std::size_t>(cfg_.connect_attempts, 1);
  double delay_ms = cfg_.backoff_ms;
  std::string last_why;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt != 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
      delay_ms = std::min(delay_ms * 2.0, cfg_.max_backoff_ms);
    }
    disconnect();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      last_why = std::string("socket() failed: ") + std::strerror(errno);
      continue;
    }
    // Requests are small, so a send() blocks only on a peer that stopped
    // reading; bound each one by the client-wide budget.
    timeval tv{};
    if (cfg_.timeout_seconds > 0.0) {
      tv.tv_sec = static_cast<time_t>(cfg_.timeout_seconds);
      tv.tv_usec = static_cast<suseconds_t>(
          std::fmod(cfg_.timeout_seconds, 1.0) * 1e6);
    }
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      disconnect();
      // Not retryable: the address can never resolve.
      throw TransportError(TransportError::Kind::kConnect,
                           "HttpClient: bad address '" + host_ + "'");
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return;
    }
    last_why = std::strerror(errno);
    disconnect();
  }
  throw TransportError(TransportError::Kind::kConnect,
                       "HttpClient: cannot connect to " + host_ + ":" +
                           std::to_string(port_) + " after " +
                           std::to_string(attempts) +
                           " attempt(s): " + last_why);
}

HttpResponse HttpClient::request(
    const std::string& method, const std::string& target,
    const std::string& body, const std::map<std::string, std::string>& headers,
    double timeout_seconds) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "host: " + host_ + ":" + std::to_string(port_) + "\r\n";
  for (const auto& [name, value] : headers) {
    wire += name + ": " + value + "\r\n";
  }
  if (!body.empty() || method == "POST") {
    wire += "content-length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += body;

  const double budget =
      timeout_seconds > 0.0 ? timeout_seconds : cfg_.timeout_seconds;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) connect();
    const auto sent_at = std::chrono::steady_clock::now();
    RequestParser parser(kResponseLimits, RequestParser::Direction::kResponse);
    const bool sent = send_all(fd_, wire);
    if (!sent && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      disconnect();
      throw TransportError(TransportError::Kind::kTimeout,
                           "HttpClient: send timed out");
    }
    const ReadEnd end =
        sent ? read_message(fd_, parser, budget, sent_at) : ReadEnd::kEof;
    if (end == ReadEnd::kEof) {
      // Dead keep-alive connection: reconnect once and retry. Safe for
      // this API because it failed before any response byte arrived.
      disconnect();
      continue;
    }
    // A timeout, truncated or unparseable response leaves the stream out
    // of step: a late reply would be read as the answer to the NEXT
    // request on this keep-alive connection. Never hand that fd to a
    // future call.
    if (end != ReadEnd::kMessage ||
        parser.state() == RequestParser::State::kError) {
      disconnect();
      using Kind = TransportError::Kind;
      if (end == ReadEnd::kTimeout) {
        throw TransportError(Kind::kTimeout, "HttpClient: response timed out");
      }
      if (end == ReadEnd::kClosed) {
        throw TransportError(Kind::kClosed,
                             "HttpClient: connection closed mid-response");
      }
      throw TransportError(Kind::kMalformed, "HttpClient: malformed "
                                             "response: " +
                                                 parser.error_reason());
    }
    HttpResponse response = std::move(parser.response());
    // One request, one reply: bytes past it would answer the next request.
    const bool keep_alive = parser.keep_alive();
    parser.reset();
    if (!keep_alive || !parser.idle()) disconnect();
    return response;
  }
  throw TransportError(TransportError::Kind::kClosed,
                       "HttpClient: server closed the connection twice");
}

// --- ApiClient --------------------------------------------------------------

namespace {

/// A 2xx answer whose body does not decode is a transport-level failure
/// (truncated or corrupt bytes), not a protocol refusal: surface it as
/// TransportError{kMalformed} so callers never mistake it for job state.
template <typename Fn>
auto decode_or_malformed(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const ApiError&) {
    throw;
  } catch (const TransportError&) {
    throw;
  } catch (const std::exception& e) {
    throw TransportError(
        TransportError::Kind::kMalformed,
        std::string("ApiClient: malformed ") + what + ": " + e.what());
  }
}

}  // namespace

ApiClient::ApiClient(std::string host, std::uint16_t port, std::string api_key,
                     double timeout_seconds)
    : http_(std::move(host), port, timeout_seconds),
      api_key_(std::move(api_key)) {}

ApiClient::ApiClient(std::string host, std::uint16_t port, std::string api_key,
                     ClientConfig cfg)
    : http_(std::move(host), port, cfg), api_key_(std::move(api_key)) {}

HttpResponse ApiClient::call(const std::string& method,
                             const std::string& target,
                             const std::string& body,
                             double timeout_seconds) {
  std::map<std::string, std::string> headers;
  if (!api_key_.empty()) headers["x-api-key"] = api_key_;
  if (!body.empty()) headers["content-type"] = "application/json";
  HttpResponse response =
      http_.request(method, target, body, headers, timeout_seconds);
  if (response.status >= 200 && response.status < 300) return response;

  std::string code = "http_" + std::to_string(response.status);
  std::string message = response.body;
  try {
    const auto doc = util::parse_json(response.body);
    const auto& err = doc.at("error");
    code = err.at("code").as_string();
    message = err.at("message").as_string();
  } catch (const std::exception&) {
    // Non-JSON error body: keep the raw fallback.
  }
  double retry_after = -1.0;
  if (const auto it = response.headers.find("retry-after");
      it != response.headers.end()) {
    retry_after = std::atof(it->second.c_str());
  }
  throw ApiError(response.status, std::move(code), message, retry_after);
}

std::uint64_t ApiClient::submit(const std::string& model, std::size_t rows,
                                std::uint64_t seed, std::size_t chunk_rows,
                                int priority, double deadline_ms) {
  serve::SampleJob job;
  job.model_key = model;
  job.rows = rows;
  job.seed = seed;
  job.chunk_rows = chunk_rows;
  job.priority = priority;
  job.deadline_ms = deadline_ms;
  return submit(job);
}

std::uint64_t ApiClient::submit(const serve::SampleJob& job) {
  util::JsonWriter w;
  w.begin_object();
  serve::write_sample_job(w, job);
  w.end_object();

  const HttpResponse response = call("POST", "/v1/sample", w.str());
  return decode_or_malformed("submit response", [&] {
    const auto doc = util::parse_json(response.body);
    std::uint64_t id = 0;
    const std::string& text = doc.at("job_id").as_string();
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), id);
    if (res.ec != std::errc{} || id == 0) {
      throw std::runtime_error("bad job_id '" + text + "'");
    }
    return id;
  });
}

RemoteResult ApiClient::wait_result(std::uint64_t job_id,
                                    std::size_t page_rows,
                                    double poll_wait_ms) {
  const std::string base = "/v1/jobs/" + std::to_string(job_id);
  RemoteResult out;
  std::uint64_t cursor = 0;
  bool have_schema = false;

  for (;;) {
    std::string target = base + "?cursor=" + std::to_string(cursor);
    if (page_rows != 0) target += "&limit=" + std::to_string(page_rows);
    if (poll_wait_ms > 0.0) {
      target += "&wait_ms=" +
                std::to_string(static_cast<std::uint64_t>(poll_wait_ms));
    }
    const HttpResponse response = call("GET", target);
    enum class Page { kPending, kMore, kDone };
    std::uint64_t next_cursor = 0;
    const Page page = decode_or_malformed("job page", [&]() -> Page {
      const auto doc = util::parse_json(response.body);
      const std::string status = doc.at("status").as_string();
      if (status == "pending") return Page::kPending;  // long-poll timed out
      if (status == "failed") {
        const auto& err = doc.at("error");
        throw ApiError(200, err.at("code").as_string(),
                       err.at("message").as_string(), -1.0);
      }

      if (!have_schema) {
        std::vector<tabular::ColumnSpec> specs;
        for (const auto& col : doc.at("schema").array) {
          tabular::ColumnSpec spec;
          spec.name = col.at("name").as_string();
          spec.kind = col.at("kind").as_string() == "numerical"
                          ? tabular::ColumnKind::kNumerical
                          : tabular::ColumnKind::kCategorical;
          specs.push_back(std::move(spec));
        }
        out.table = tabular::Table(tabular::Schema(std::move(specs)));
        out.model_key = doc.at("model").as_string();
        out.queue_seconds = doc.number_or("queue_seconds", 0.0);
        out.sample_seconds = doc.number_or("sample_seconds", 0.0);
        out.total_seconds = doc.number_or("total_seconds", 0.0);
        out.cache_hit = doc.has("cache_hit") && doc.at("cache_hit").as_bool();
        have_schema = true;
      }

      // A page must move the cursor forward and hold exactly the rows it
      // spans; a peer that answers otherwise could keep this loop paging
      // forever or splice rows out of order.
      constexpr std::int64_t kMaxRows = std::int64_t{1} << 53;
      const auto total = static_cast<std::uint64_t>(
          doc.at("rows").as_integer(0, kMaxRows));
      const auto& next = doc.at("next_cursor");
      const auto end = next.is_null() ? total
                                      : static_cast<std::uint64_t>(
                                            next.as_integer(0, kMaxRows));
      const auto& data = doc.at("data").array;
      if (end > total || end < cursor || (!next.is_null() && end == cursor) ||
          data.size() != end - cursor) {
        throw std::runtime_error(
            "page at cursor " + std::to_string(cursor) + " of " +
            std::to_string(total) + " rows ends at " + std::to_string(end) +
            " and holds " + std::to_string(data.size()) + " rows");
      }

      const auto& schema = out.table.schema();
      for (const auto& row : data) {
        if (row.array.size() != schema.num_columns()) {
          throw std::runtime_error("row width mismatch");
        }
        auto rb = out.table.make_row();
        for (std::size_t c = 0; c < row.array.size(); ++c) {
          const auto& cell = row.array[c];
          if (schema.column(c).kind == tabular::ColumnKind::kNumerical) {
            // null is the JSON image of NaN (json_number degrades it).
            rb.set(c, cell.is_null() ? std::numeric_limits<double>::quiet_NaN()
                                     : cell.as_number());
          } else {
            rb.set(c, cell.as_string());
          }
        }
        out.table.append_row(rb);
      }
      ++out.pages;

      if (next.is_null()) return Page::kDone;
      next_cursor = end;
      return Page::kMore;
    });
    if (page == Page::kDone) break;
    if (page == Page::kMore) cursor = next_cursor;
  }
  return out;
}

bool ApiClient::cancel(std::uint64_t job_id) {
  const HttpResponse response =
      call("DELETE", "/v1/jobs/" + std::to_string(job_id));
  return decode_or_malformed("cancel response", [&] {
    return util::parse_json(response.body).at("cancelled").as_bool();
  });
}

std::vector<std::string> ApiClient::models() {
  const HttpResponse response = call("GET", "/v1/models");
  return decode_or_malformed("models response", [&] {
    const auto doc = util::parse_json(response.body);
    std::vector<std::string> keys;
    for (const auto& model : doc.at("models").array) {
      keys.push_back(model.at("key").as_string());
    }
    return keys;
  });
}

std::string ApiClient::stats_json() {
  return call("GET", "/v1/stats").body;
}

bool ApiClient::healthy(double timeout_seconds) {
  try {
    return call("GET", "/healthz", "", timeout_seconds).status == 200;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace surro::net
