#pragma once
// Loopback-grade HTTP/1.1 client for the serving front end:
// serve::RemoteShard (and through it the soak harness's socket mode), the
// `surro_cli request` command, the e2e tests, and the benchmark all drive
// the server through this instead of shelling out to curl (the library
// takes no HTTP dependency).
//
// Two layers:
//   * HttpClient — one keep-alive connection: serialize a request, read
//     one response through the parser the server reads requests with
//     (same caps and checks). Reconnects transparently when the server
//     closed the connection (keep-alive budget, idle timeout).
//   * ApiClient — the REST protocol: submit jobs, long-poll + paginate
//     results back into a tabular::Table (the bytes the determinism
//     digest hashes), cancel, stats. Non-2xx answers throw ApiError
//     carrying the structured {code, message} body and any Retry-After.
//
// Failures below the protocol (connect refused, request timeout, peer
// hangup mid-response, unparseable bytes) throw the typed TransportError —
// the signal serve::RemoteShard and the ShardPool replica re-route key on
// — and drop the connection, so a failed reply never answers the next one.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/http.hpp"
#include "serve/sample_service.hpp"
#include "tabular/table.hpp"

namespace surro::net {

/// The transport failed underneath the REST protocol: the peer was
/// unreachable, went silent past the request budget, hung up mid-response,
/// or answered bytes that do not parse. Distinct from ApiError (the server
/// answered, with a structured refusal) and from serve::ServiceError (the
/// service itself refused or failed the job) — callers that re-route on
/// placement failure (ShardPool replica leases) catch exactly this type.
class TransportError : public std::runtime_error {
 public:
  enum class Kind {
    kConnect,    ///< TCP connect failed (refused, unreachable, bad address)
    kTimeout,    ///< the request budget expired before the last byte
    kClosed,     ///< the peer closed the connection mid-response
    kMalformed,  ///< response framing or body did not parse
  };

  TransportError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const char* kind_name() const noexcept;

 private:
  Kind kind_;
};

/// "connect" | "timeout" | "closed" | "malformed".
[[nodiscard]] const char* transport_error_kind_name(
    TransportError::Kind kind) noexcept;

/// Connection behavior shared by HttpClient and ApiClient.
struct ClientConfig {
  /// Budget per request, from sending it to the last byte of the
  /// response; 0 = unbounded (tests only).
  double timeout_seconds = 30.0;
  /// TCP connect attempts per request, with exponential backoff between
  /// them. 1 = fail fast on the first refusal; worker fleets use 2-3 so a
  /// just-spawned or briefly-restarting peer gets a grace window.
  std::size_t connect_attempts = 1;
  double backoff_ms = 50.0;      ///< delay before the second attempt
  double max_backoff_ms = 2000.0;  ///< backoff doubles up to this ceiling
};

/// One keep-alive HTTP/1.1 connection to host:port. Not thread-safe; give
/// each client thread its own instance (exactly like one remote user).
class HttpClient {
 public:
  HttpClient(std::string host, std::uint16_t port,
             double timeout_seconds = 30.0);
  HttpClient(std::string host, std::uint16_t port, ClientConfig cfg);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Issue one request and read the full response. Connects lazily (with
  /// the configured reconnect-with-backoff) and retries once on a dead
  /// keep-alive connection. Throws TransportError on connect/send/recv
  /// failure or a malformed response. `timeout_seconds` > 0 overrides the
  /// client-wide budget for this request only (readiness probes poll with
  /// a short budget without committing the connection to it).
  HttpResponse request(const std::string& method, const std::string& target,
                       const std::string& body = "",
                       const std::map<std::string, std::string>& headers = {},
                       double timeout_seconds = 0.0);

  /// Drop the connection (the next request reconnects).
  void disconnect();

 private:
  void connect();

  std::string host_;
  std::uint16_t port_;
  ClientConfig cfg_;
  int fd_ = -1;
};

/// A non-2xx REST answer, decoded: HTTP status, the structured error code
/// ("unauthorized", "quota_exhausted", "overloaded", ...), and Retry-After
/// seconds when the server sent one (-1 otherwise).
class ApiError : public std::runtime_error {
 public:
  ApiError(int status, std::string code, const std::string& message,
           double retry_after)
      : std::runtime_error(code + ": " + message),
        status_(status),
        code_(std::move(code)),
        retry_after_(retry_after) {}
  [[nodiscard]] int status() const noexcept { return status_; }
  [[nodiscard]] const std::string& code() const noexcept { return code_; }
  [[nodiscard]] double retry_after() const noexcept { return retry_after_; }

 private:
  int status_;
  std::string code_;
  double retry_after_;
};

/// What ApiClient::wait_result reassembles from the paginated pages.
struct RemoteResult {
  tabular::Table table;
  std::string model_key;
  /// Service-side timings from the job document (not wire round-trip).
  double queue_seconds = 0.0;
  double sample_seconds = 0.0;
  double total_seconds = 0.0;
  bool cache_hit = false;
  std::size_t pages = 0;  ///< GET pages it took to drain the result
};

/// The REST protocol over one HttpClient connection.
class ApiClient {
 public:
  /// `api_key` empty = anonymous (works when the server is open-access).
  ApiClient(std::string host, std::uint16_t port, std::string api_key = "",
            double timeout_seconds = 30.0);
  /// Full connection config (reconnect-with-backoff, request budgets).
  ApiClient(std::string host, std::uint16_t port, std::string api_key,
            ClientConfig cfg);

  /// POST /v1/sample with the job's fields in serve::write_sample_job's
  /// form (its progress hook cannot cross the wire). Returns the job id.
  /// Throws ApiError on refusal (quota, auth, admission) — "overloaded"/
  /// "shed" map from the typed ServiceError exactly as the in-process
  /// submit would throw them.
  std::uint64_t submit(const serve::SampleJob& job);
  /// The same for a job given field by field (threads 0).
  std::uint64_t submit(const std::string& model, std::size_t rows,
                       std::uint64_t seed, std::size_t chunk_rows = 0,
                       int priority = 0, double deadline_ms = 0.0);

  /// Long-poll GET /v1/jobs/{id} until resolution, then page the rows
  /// back into a Table. Throws ApiError with the job's error code when
  /// the job failed ("cancelled", "deadline", "shed", "execution"), and
  /// TransportError{kMalformed} on a page that does not advance the cursor
  /// or does not hold exactly the rows it spans.
  RemoteResult wait_result(std::uint64_t job_id, std::size_t page_rows = 0,
                           double poll_wait_ms = 1000.0);

  /// DELETE /v1/jobs/{id}; true when the job was still live to cancel.
  bool cancel(std::uint64_t job_id);

  /// Sorted model keys from GET /v1/models.
  std::vector<std::string> models();

  /// Raw GET /v1/stats document.
  std::string stats_json();

  /// GET /healthz round-trip succeeded. `timeout_seconds` > 0 bounds just
  /// this probe (fleet readiness polls fast without shrinking the budget
  /// configured for real requests).
  bool healthy(double timeout_seconds = 0.0);

  [[nodiscard]] HttpClient& http() noexcept { return http_; }

 private:
  /// Issue + decode: non-2xx throws ApiError (parsing the error body).
  /// `timeout_seconds` > 0 overrides the client budget for this call.
  HttpResponse call(const std::string& method, const std::string& target,
                    const std::string& body = "",
                    double timeout_seconds = 0.0);

  HttpClient http_;
  std::string api_key_;
};

}  // namespace surro::net
