#pragma once
// HTTP/1.1 wire format for the network serving front end: request/response
// value types, one *incremental* message parser for both directions, the
// recv loop that feeds it, and response serialization.
// Dependency-free by design (the container bakes in no HTTP library), and
// deliberately small: the server speaks exactly the subset the REST API
// needs — GET/POST/DELETE, Content-Length bodies, keep-alive — and answers
// everything else with a precise status code instead of guessing.
//
// The parser is fed raw socket bytes in arbitrary slices (a request line
// may arrive one byte at a time; two pipelined requests may arrive in one
// read) and owns the protocol-error taxonomy: 400 for malformed syntax,
// 413 for a body past the configured cap, 431 for oversized headers, 505
// for versions other than HTTP/1.0 and 1.1. Size caps are enforced *while
// reading*, so a hostile peer cannot make either end buffer an unbounded
// message before it is judged. The server parses requests with it and
// HttpClient parses responses with it; only the start line differs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace surro::net {

/// Byte caps the parser enforces while a message streams in.
struct HttpLimits {
  /// Request line + headers, including the terminating blank line.
  std::size_t max_header_bytes = 16 * 1024;
  /// Declared Content-Length bound (the REST layer mirrors this into its
  /// JSON parser's document cap, so both layers agree on "too big").
  std::size_t max_body_bytes = 1 << 20;
};

struct HttpRequest {
  std::string method;  ///< as sent (token, case-sensitive per RFC 9110)
  std::string target;  ///< raw request target, e.g. "/v1/jobs/7?cursor=0"
  std::string path;    ///< target up to '?'
  std::map<std::string, std::string> query;    ///< decoded ?k=v pairs
  std::map<std::string, std::string> headers;  ///< field names lowercased
  std::string body;
  int version_minor = 1;   ///< HTTP/1.<minor>
  bool keep_alive = true;  ///< resolved from version + Connection header

  /// Header lookup by lowercase name, with a fallback when absent.
  [[nodiscard]] std::string header(const std::string& name,
                                   const std::string& fallback = "") const {
    const auto it = headers.find(name);
    return it == headers.end() ? fallback : it->second;
  }
  /// Query parameter with a fallback when absent.
  [[nodiscard]] std::string query_or(const std::string& key,
                                     const std::string& fallback = "") const {
    const auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
  }
};

struct HttpResponse {
  int status = 200;
  std::map<std::string, std::string> headers;
  std::string body;

  /// Response with a JSON body (sets Content-Type).
  [[nodiscard]] static HttpResponse json(int status, std::string body);
  /// Response with a text/plain body.
  [[nodiscard]] static HttpResponse text(int status, std::string body);
};

/// Canonical reason phrase for the status codes this server emits
/// ("Unknown" for anything else — never throws).
[[nodiscard]] const char* status_reason(int status) noexcept;

/// Incremental HTTP/1.1 message parser. Feed it socket bytes as they
/// arrive; it transitions kNeedMore -> kComplete (request() or response()
/// is valid) or kNeedMore -> kError (error_status()/error_reason() describe
/// the 4xx/5xx a server answers before closing). After a kComplete,
/// reset() re-arms the parser for the next message on the connection,
/// retaining any pipelined bytes that arrived beyond the current one. A
/// kResponse parser reads a status line where a kRequest parser reads a
/// request line; everything after the start line is shared.
class RequestParser {
 public:
  enum class Direction { kRequest, kResponse };

  explicit RequestParser(HttpLimits limits = {},
                         Direction direction = Direction::kRequest)
      : limits_(limits), direction_(direction) {}

  enum class State { kNeedMore, kComplete, kError };

  /// Append bytes and advance the parse as far as they allow. Idempotent
  /// once terminal: further feeds return the same state.
  State feed(std::string_view data);

  [[nodiscard]] State state() const noexcept { return state_; }
  /// Valid while state() == kComplete (cleared by reset()).
  [[nodiscard]] const HttpRequest& request() const noexcept {
    return request_;
  }
  /// The kResponse counterpart of request(); the caller may move from it.
  [[nodiscard]] HttpResponse& response() noexcept { return response_; }
  /// Whether the connection outlives the completed message: HTTP/1.1
  /// unless `connection: close`, HTTP/1.0 only with `keep-alive`.
  [[nodiscard]] bool keep_alive() const noexcept { return keep_alive_; }
  /// No byte of a message has arrived since construction or reset().
  [[nodiscard]] bool idle() const noexcept {
    return state_ == State::kNeedMore && phase_ == Phase::kHeaders &&
           buffer_.empty();
  }
  /// The response status to send for a kError parse (400/413/431/501/505).
  [[nodiscard]] int error_status() const noexcept { return error_status_; }
  [[nodiscard]] const std::string& error_reason() const noexcept {
    return error_reason_;
  }

  /// Re-arm for the next message on a keep-alive connection. Bytes already
  /// received past the completed message (pipelining) are retained and
  /// re-parsed immediately — check state() after calling.
  void reset();

 private:
  enum class Phase { kHeaders, kBody };

  void fail(int status, std::string reason);
  /// The start line sets the HTTP minor version; false after fail().
  bool parse_request_line(std::string_view line, int& version_minor);
  bool parse_status_line(std::string_view line, int& version_minor);
  bool parse_version(std::string_view version, int& version_minor);
  /// Parse the buffered start line + headers ending at `header_end`
  /// (offset of the blank line). Returns false after fail().
  bool parse_headers(std::size_t header_end);
  void advance();

  HttpLimits limits_;
  Direction direction_;
  std::string buffer_;  // unconsumed bytes
  Phase phase_ = Phase::kHeaders;
  State state_ = State::kNeedMore;
  HttpRequest request_;
  HttpResponse response_;
  bool keep_alive_ = true;
  std::size_t body_expected_ = 0;
  int error_status_ = 0;
  std::string error_reason_;
};

/// How read_message() ended: the parser is terminal (kComplete or
/// kError); the peer closed before the message's first byte; the peer
/// closed or reset mid-message; the budget ran out.
enum class ReadEnd { kMessage, kEof, kClosed, kTimeout };

/// The recv loop both ends of the wire share: feed `parser` from socket
/// `fd` until it is terminal. With `budget_seconds` > 0 the whole message
/// must arrive within that long of `start` or, with no `start`, of its
/// first byte, whose wait gets the same budget. 0 = unbounded.
[[nodiscard]] ReadEnd read_message(
    int fd, RequestParser& parser, double budget_seconds,
    std::optional<std::chrono::steady_clock::time_point> start =
        std::nullopt);

/// send() the whole buffer, tolerating partial writes. False on error
/// (errno says which: EAGAIN/EWOULDBLOCK when SO_SNDTIMEO expired).
[[nodiscard]] bool send_all(int fd, std::string_view data);

/// Serialize a response, stamping Content-Length and Connection headers
/// (`keep_alive` reflects what the server decided for this connection).
[[nodiscard]] std::string serialize_response(const HttpResponse& response,
                                             bool keep_alive);

/// Decode %XX escapes and '+' in a query component (malformed escapes are
/// kept literally rather than rejected — query strings are advisory).
[[nodiscard]] std::string url_decode(std::string_view s);

}  // namespace surro::net
