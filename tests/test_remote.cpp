// Multi-process shard transport: the cross-process conformance sweep.
//
//   * Error-map round trip — the one shared ServiceError <-> wire-code <->
//     HTTP-status table (src/net/error_map) maps every code there and back.
//   * Transport-error taxonomy — connection refused, a server closing
//     mid-response, a malformed 2xx body, a result page that does not
//     advance its cursor, and a timeout each surface as a typed
//     net::TransportError of the right Kind; none hang or crash.
//   * Graceful shutdown order — stop accepts first, then drain: every job
//     admitted before the stop still completes (the serve --worker SIGTERM
//     path, exercised here through the same loopback endpoint).
//   * RemoteShard conformance — a worker behind the HTTP wire protocol,
//     driven through the SampleBackend face, returns bytes bitwise
//     identical to a direct in-process sample of the same identity,
//     including paginated reassembly and local-matching error semantics.
//   * Mixed pools — ShardPool over local AND remote shards lands on the
//     same bytes as a direct unsharded ModelHost for all four models, and
//     a dead remote replica re-routes (counted in rerouted_transport) with
//     bytes unchanged.
//   * True multi-process (when SURRO_CLI_PATH is defined) — a WorkerFleet
//     of real `surro_cli serve --worker` processes behind the same pool,
//     including a SIGKILLed worker mid-sweep and a graceful fleet
//     shutdown asserting exit 0.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/error_map.hpp"
#include "net/rest.hpp"
#include "serve/model_host.hpp"
#include "serve/sample_service.hpp"
#include "serve/shard_pool.hpp"
#include "serve/worker_fleet.hpp"
#include "util/rng.hpp"

namespace surro::serve {
namespace {

// Tiny mixed table with clear structure (mirrors test_shard.cpp).
tabular::Table cluster_table(std::size_t n, std::uint64_t seed) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical},
                          {"status", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool cluster_a = rng.bernoulli(0.65);
    auto row = t.make_row();
    if (cluster_a) {
      row.set(0, rng.normal(0.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.9) ? "BNL" : "CERN"));
      row.set(2, rng.normal(-2.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.85) ? "finished" : "failed"));
    } else {
      row.set(0, rng.normal(5.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.8) ? "RAL" : "CERN"));
      row.set(2, rng.normal(3.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.6) ? "finished" : "failed"));
    }
    t.append_row(row);
  }
  return t;
}

void expect_tables_identical(const tabular::Table& a,
                             const tabular::Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema());
  for (const std::size_t col : a.schema().numerical_indices()) {
    const auto va = a.numerical(col);
    const auto vb = b.numerical(col);
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(va[r], vb[r]) << "numerical col " << col << " row " << r;
    }
  }
  for (const std::size_t col : a.schema().categorical_indices()) {
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.label_at(col, r), b.label_at(col, r))
          << "categorical col " << col << " row " << r;
    }
  }
}

/// All four paper models, fitted once and archived into one
/// process-lifetime scratch directory (the test_shard.cpp pattern): one
/// set of bytes behind every placement this file sweeps.
struct SharedArchives {
  std::filesystem::path dir;
  std::vector<std::string> keys{"smote", "tvae", "ctabgan", "tabddpm"};

  SharedArchives() {
    dir = std::filesystem::temp_directory_path() /
          ("surro_remote_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    models::TrainBudget budget;
    budget.epochs = 4;
    budget.batch_size = 64;
    budget.learning_rate = 1e-3f;
    const auto train = cluster_table(300, 21);
    for (const auto& key : keys) {
      auto model = models::make_generator(key, budget, 7);
      model->fit(train);
      models::save_model_file(*model, path(key));
    }
  }
  ~SharedArchives() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  [[nodiscard]] std::string path(const std::string& key) const {
    return (dir / (key + ".bin")).string();
  }
};

const SharedArchives& archives() {
  static SharedArchives shared;
  return shared;
}

constexpr std::size_t kRows = 120;
constexpr std::size_t kChunkRows = 48;  // 3 chunks per job

struct JobId {
  std::string model;
  std::uint64_t seed = 0;
};

std::vector<JobId> job_grid() {
  std::vector<JobId> grid;
  for (const auto& key : archives().keys) {
    grid.push_back({key, 3000 + key.size()});
    grid.push_back({key, 4000 + key.size() * 3});
  }
  return grid;
}

/// Reference bytes: a direct, unsharded sample of the same identity.
tabular::Table direct_sample(const JobId& id) {
  ModelHost host;
  host.register_archive(id.model, archives().path(id.model));
  models::SampleRequest request;
  request.rows = kRows;
  request.seed = id.seed;
  request.chunk_rows = kChunkRows;
  tabular::Table out;
  host.acquire(id.model)->sample_into(out, request);
  return out;
}

SampleJob make_job(const JobId& id) {
  SampleJob job;
  job.model_key = id.model;
  job.rows = kRows;
  job.seed = id.seed;
  job.chunk_rows = kChunkRows;
  return job;
}

/// An in-process "worker": its own ModelHost + SampleService behind a real
/// HttpEndpoint on an ephemeral loopback port — the same wire surface a
/// `surro_cli serve --worker` process exposes, minus the fork/exec, so the
/// protocol conformance tests stay fast and sanitizer-friendly.
struct LoopbackWorker {
  explicit LoopbackWorker(const std::vector<std::string>& keys,
                          net::RestConfig rest_cfg = {}) {
    HostConfig host_cfg;
    host_cfg.capacity = std::max<std::size_t>(keys.size(), 1);
    host.emplace(host_cfg);
    for (const auto& key : keys) {
      host->register_archive(key, archives().path(key));
    }
    service.emplace(*host);
    endpoint.emplace(*service, rest_cfg);
    endpoint->server.start();
  }
  ~LoopbackWorker() {
    if (endpoint) endpoint->server.stop();
  }
  [[nodiscard]] std::uint16_t port() const { return endpoint->server.port(); }

  std::optional<ModelHost> host;
  std::optional<SampleService> service;
  std::optional<net::HttpEndpoint> endpoint;
};

/// RemoteShardConfig tuned for tests: fail fast instead of retrying for
/// seconds, so dead-worker paths resolve quickly.
RemoteShardConfig quick_remote(std::uint16_t port) {
  RemoteShardConfig cfg;
  cfg.port = port;
  cfg.http = net::ClientConfig{5.0, 1, 0.0, 0.0};
  cfg.poll_wait_ms = 100.0;
  return cfg;
}

/// A single-shot fake server: binds an ephemeral port, accepts ONE
/// connection, optionally reads the request, writes `response` verbatim
/// (or one byte per `trickle_seconds`, until the client hangs up),
/// optionally lingers, then closes. Just enough socket to script the
/// transport failure modes a real worker can exhibit.
class OneShotServer {
 public:
  explicit OneShotServer(std::string response, double linger_seconds = 0.0,
                         double trickle_seconds = 0.0)
      : response_(std::move(response)),
        linger_seconds_(linger_seconds),
        trickle_seconds_(trickle_seconds) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 4) != 0) {
      throw std::runtime_error("OneShotServer: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ::ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~OneShotServer() {
    if (fd_ >= 0) ::close(fd_);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) return;
    char sink[4096];
    (void)::recv(conn, sink, sizeof(sink), 0);  // drain the request line
    if (trickle_seconds_ > 0.0) {
      for (const char c : response_) {
        if (::send(conn, &c, 1, MSG_NOSIGNAL) != 1) break;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(trickle_seconds_));
      }
    } else if (!response_.empty()) {
      (void)::send(conn, response_.data(), response_.size(), MSG_NOSIGNAL);
    }
    if (linger_seconds_ > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(linger_seconds_));
    }
    ::close(conn);
  }

  std::string response_;
  double linger_seconds_ = 0.0;
  double trickle_seconds_ = 0.0;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// A keep-alive stub peer on one connection: it answers each request with
/// `page` until it has served `pages` of them, then with a 500, and hangs
/// up. A pager that trusts what the page says about the cursor would
/// otherwise fetch from it forever; here it ends on the 500 instead.
class PageServer {
 public:
  PageServer(std::string page, std::size_t pages)
      : page_(std::move(page)), pages_(pages) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 4) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw std::runtime_error("PageServer: bind/listen failed");
    }
    port_ = ::ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~PageServer() {
    ::shutdown(fd_, SHUT_RDWR);  // wakes an accept() no client reached
    thread_.join();
    ::close(fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::size_t served() const { return served_.load(); }

 private:
  void serve() {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) return;
    std::string pending;
    char chunk[4096];
    for (;;) {
      std::size_t end = 0;
      while ((end = pending.find("\r\n\r\n")) == std::string::npos) {
        const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          ::close(conn);
          return;
        }
        pending.append(chunk, static_cast<std::size_t>(n));
      }
      pending.erase(0, end + 4);  // one GET: headers only
      const bool more = served_.load() < pages_;
      // Counted before it is sent: the client may read served() as soon
      // as the page lands.
      if (more) ++served_;
      const std::string body = more ? page_ : "{}";
      const std::string wire =
          std::string(more ? "HTTP/1.1 200 OK" : "HTTP/1.1 500 Oops") +
          "\r\ncontent-length: " + std::to_string(body.size()) + "\r\n\r\n" +
          body;
      (void)::send(conn, wire.data(), wire.size(), MSG_NOSIGNAL);
      if (!more) break;
    }
    ::close(conn);
  }

  std::string page_;
  std::size_t pages_;
  std::atomic<std::size_t> served_{0};
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// An ephemeral port with nothing listening on it: bind, read, close.
/// (The port COULD be reused before the test connects; in practice the
/// race window is microseconds on a loopback-only test host.)
std::uint16_t closed_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ::ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// The TransportError kind one GET against a scripted server ends in, or
/// "none" when it returns.
std::string failure_kind(const OneShotServer& server, double budget_seconds) {
  net::HttpClient http("127.0.0.1", server.port(),
                       net::ClientConfig{budget_seconds, 1, 0.0, 0.0});
  try {
    (void)http.request("GET", "/v1/models");
  } catch (const net::TransportError& e) {
    return e.kind_name();
  }
  return "none";
}

// ------------------------------------------------------- error-map table --

TEST(ErrorMap, RoundTripsEveryServiceErrorCode) {
  const auto& table = net::service_error_table();
  ASSERT_EQ(table.size(), 4u);  // one row per ServiceError::Code
  std::set<std::string> wires;
  for (const auto& row : table) {
    // code -> wire -> code is the identity.
    EXPECT_STREQ(net::service_error_code(row.code), row.wire);
    ServiceError::Code parsed;
    ASSERT_TRUE(net::parse_service_error_code(row.wire, parsed)) << row.wire;
    EXPECT_EQ(parsed, row.code) << row.wire;
    // Statuses are real client/server error codes, one per row.
    EXPECT_EQ(net::service_error_status(row.code), row.http_status);
    EXPECT_GE(row.http_status, 400);
    EXPECT_LT(row.http_status, 600);
    wires.insert(row.wire);
  }
  EXPECT_EQ(wires.size(), table.size());  // wire codes are distinct

  ServiceError::Code ignored;
  EXPECT_FALSE(net::parse_service_error_code("unknown_model", ignored));
  EXPECT_FALSE(net::parse_service_error_code("", ignored));
  EXPECT_FALSE(net::parse_service_error_code("OVERLOADED", ignored));
}

// -------------------------------------------------- transport-error taxonomy

TEST(TransportErrors, ConnectionRefusedIsTypedConnect) {
  net::ApiClient api("127.0.0.1", closed_port(), "",
                     net::ClientConfig{1.0, 2, 5.0, 10.0});
  try {
    (void)api.models();
    FAIL() << "expected TransportError";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kConnect);
    EXPECT_NE(std::string(e.what()).find("attempt"), std::string::npos);
  }
  EXPECT_FALSE(api.healthy(0.5));  // healthz probes never throw
}

TEST(TransportErrors, ServerClosingMidResponseIsTypedClosed) {
  // Headers promise 64 body bytes; the server sends 5 and hangs up.
  OneShotServer server(
      "HTTP/1.1 200 OK\r\ncontent-length: 64\r\n\r\nhello");
  net::ApiClient api("127.0.0.1", server.port(), "",
                     net::ClientConfig{2.0, 1, 0.0, 0.0});
  try {
    (void)api.models();
    FAIL() << "expected TransportError";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kClosed);
  }
}

TEST(TransportErrors, MalformedBodyIsTypedMalformed) {
  // A confident 200 whose body is not the JSON the API promised.
  const std::string body = "this is not json";
  OneShotServer server("HTTP/1.1 200 OK\r\ncontent-length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body);
  net::ApiClient api("127.0.0.1", server.port(), "",
                     net::ClientConfig{2.0, 1, 0.0, 0.0});
  try {
    (void)api.models();
    FAIL() << "expected TransportError";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kMalformed);
  }
}

TEST(TransportErrors, SilentServerIsTypedTimeoutNotAHang) {
  // Accepts, never answers. The per-request timeout must fire well before
  // the server's linger ends — a hang here is the bug being tested for.
  OneShotServer server("", /*linger_seconds=*/2.0);
  net::ApiClient api("127.0.0.1", server.port(), "",
                     net::ClientConfig{0.3, 1, 0.0, 0.0});
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)api.models();
    FAIL() << "expected TransportError";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kTimeout);
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 1.5);  // typed error well before the 2-second linger
}

TEST(TransportErrors, TimedOutRequestNeverLeaksItsLateReplyIntoTheNext) {
  // A reply that lands after the client gave up must not be readable as
  // the answer to the NEXT request on the same keep-alive connection: the
  // timed-out request tears the connection down, so the follow-up call
  // reconnects and reads reply B — never the stale reply A (which, on a
  // RemoteShard control connection, would be another job's job_id).
  const std::string body_a = "{\"which\":\"A\"}";
  const std::string body_b = "{\"which\":\"B\"}";
  const auto wire = [](const std::string& body) {
    return "HTTP/1.1 200 OK\r\ncontent-length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
  };

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);  // reuse for dummy connect

  std::thread server([&] {
    char sink[4096];
    const int conn1 = ::accept(listen_fd, nullptr, nullptr);
    if (conn1 < 0) return;
    (void)::recv(conn1, sink, sizeof(sink), 0);
    // Answer request 1 well after the client's 250ms budget expired.
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    const std::string late_a = wire(body_a);
    (void)::send(conn1, late_a.data(), late_a.size(), MSG_NOSIGNAL);
    const int conn2 = ::accept(listen_fd, nullptr, nullptr);
    if (conn2 >= 0) {
      (void)::recv(conn2, sink, sizeof(sink), 0);
      const std::string b = wire(body_b);
      (void)::send(conn2, b.data(), b.size(), MSG_NOSIGNAL);
      ::close(conn2);
    }
    ::close(conn1);
  });

  net::HttpClient http("127.0.0.1", ::ntohs(addr.sin_port),
                       net::ClientConfig{0.25, 1, 0.0, 0.0});
  try {
    (void)http.request("GET", "/v1/stats");
    ADD_FAILURE() << "expected TransportError";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kTimeout);
  }
  net::HttpResponse second;
  try {
    second = http.request("GET", "/v1/stats", "", {}, /*timeout_seconds=*/5.0);
  } catch (const net::TransportError& e) {
    ADD_FAILURE() << "second request failed: " << e.what();
  }
  EXPECT_EQ(second.body, body_b);  // the stale reply A never surfaces

  // If a regression kept the client on conn1, nothing ever dials conn2;
  // feed the server's pending accept so the thread can exit either way.
  const int dummy = ::socket(AF_INET, SOCK_STREAM, 0);
  (void)::connect(dummy, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ::close(dummy);
  server.join();
  ::close(listen_fd);
}

// RFC 9112 section 6.3: framing a client cannot trust is an unrecoverable
// error, never a body guess whose leftover bytes answer the next request.
TEST(TransportErrors, UntrustworthyFramingIsTypedMalformed) {
  for (const std::string field :
       {"content-length: 18446744073709551615", "content-length: 2xyz",
        "transfer-encoding: chunked"}) {
    OneShotServer server("HTTP/1.1 200 OK\r\n" + field + "\r\n\r\n{}");
    EXPECT_EQ(failure_kind(server, 2.0), "malformed") << field;
  }
}

TEST(TransportErrors, UnterminatedHeaderBlockStopsAtTheCap) {
  // 20 KB of one header field and no blank line; the server then holds the
  // connection open. The client must give up at the 16 KiB header cap,
  // not read until the peer hangs up.
  OneShotServer server(
      "HTTP/1.1 200 OK\r\nx-pad: " + std::string(20000, 'a'),
      /*linger_seconds=*/2.0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(failure_kind(server, 10.0), "malformed");
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.5);
}

TEST(TransportErrors, TricklingServerIsTypedTimeoutWithinTheBudget) {
  // One byte every 0.3 s keeps each recv() short of the 1 s budget; the
  // budget covers the whole response, so the request still ends at ~1 s.
  OneShotServer server("HTTP/1.1 200 OK\r\nx-pad: aaaaaaaa", 0.0,
                       /*trickle_seconds=*/0.3);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(failure_kind(server, 1.0), "timeout");
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            3.0);
}

TEST(TransportErrors, PageThatDoesNotAdvanceOrSpanItsRowsIsTypedMalformed) {
  // Done pages of a one-column job at cursor 0: "rows" is the result's
  // total, "next_cursor" where the next page starts (null on the last).
  const auto page = [](const std::string& rows, const std::string& next,
                       const std::string& data) {
    return R"({"job_id":"1","status":"done","model":"m","rows":)" + rows +
           R"(,"cursor":0,"next_cursor":)" + next +
           R"(,"schema":[{"name":"x","kind":"numerical"}],"data":)" + data +
           "}";
  };
  const std::pair<const char*, std::string> doctored[] = {
      {"a cursor that never moves", page("4", "0", "[]")},
      {"a negative cursor", page("4", "-1", "[]")},
      {"a fractional cursor", page("4", "1.5", "[[1]]")},
      {"a cursor past the rows", page("4", "5", "[[1],[2],[3],[4],[5]]")},
      {"fewer rows than the page spans", page("4", "2", "[[1]]")},
      {"a short last page", page("4", "null", "[[1],[2]]")},
      {"a long last page", page("1", "null", "[[1],[2]]")},
  };
  for (const auto& [what, body] : doctored) {
    PageServer server(body, 50);
    net::ApiClient api("127.0.0.1", server.port(), "",
                       net::ClientConfig{2.0, 1, 0.0, 0.0});
    try {
      (void)api.wait_result(1, 0, 0.0);
      ADD_FAILURE() << what << ": expected TransportError";
    } catch (const net::TransportError& e) {
      EXPECT_EQ(e.kind(), net::TransportError::Kind::kMalformed) << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what() << " after "
                    << server.served() << " pages";
    }
    EXPECT_EQ(server.served(), 1u) << what;
  }
  // The same stub with an honest page: one fetch, two rows.
  PageServer honest(page("2", "null", "[[1],[2]]"), 50);
  net::ApiClient api("127.0.0.1", honest.port(), "",
                     net::ClientConfig{2.0, 1, 0.0, 0.0});
  EXPECT_EQ(api.wait_result(1, 0, 0.0).table.num_rows(), 2u);
  EXPECT_EQ(honest.served(), 1u);
}

TEST(TransportErrors, KindNamesAreStable) {
  using Kind = net::TransportError::Kind;
  EXPECT_STREQ(net::transport_error_kind_name(Kind::kConnect), "connect");
  EXPECT_STREQ(net::transport_error_kind_name(Kind::kTimeout), "timeout");
  EXPECT_STREQ(net::transport_error_kind_name(Kind::kClosed), "closed");
  EXPECT_STREQ(net::transport_error_kind_name(Kind::kMalformed), "malformed");
}

// ----------------------------------------------------- graceful shutdown --

TEST(GracefulShutdown, StopAcceptsThenDrainCompletesEveryAdmittedJob) {
  // The serve --worker SIGTERM contract, minus the signal: stop the accept
  // loop FIRST, then drain — every job admitted before the stop completes,
  // and drain() returns instead of deadlocking.
  LoopbackWorker worker({"smote", "tvae"});
  net::ApiClient api("127.0.0.1", worker.port());
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    ids.push_back(api.submit(s % 2 == 0 ? "smote" : "tvae", 64, s, 32));
  }
  worker.endpoint->server.stop();
  worker.service->drain();
  const auto stats = worker.service->stats();
  EXPECT_EQ(stats.completed, ids.size());
  EXPECT_EQ(stats.queue_depth, 0u);
  // New connections are refused once accepts stopped.
  net::ApiClient late("127.0.0.1", worker.port(), "",
                      net::ClientConfig{0.5, 1, 0.0, 0.0});
  EXPECT_FALSE(late.healthy(0.5));
}

// ------------------------------------------------ RemoteShard conformance --

TEST(RemoteShardConformance, BytesMatchDirectSampleIncludingPagination) {
  net::RestConfig rest_cfg;
  rest_cfg.page_rows = 50;  // kRows = 120 -> 3 pages per result
  LoopbackWorker worker(archives().keys, rest_cfg);
  RemoteShard shard(quick_remote(worker.port()));

  for (const auto& id : job_grid()) {
    SCOPED_TRACE(id.model + " seed " + std::to_string(id.seed));
    const auto table = shard.sample(make_job(id));
    expect_tables_identical(table, direct_sample(id));
  }
  shard.drain();
  EXPECT_EQ(shard.queue_depth(), 0u);
}

TEST(RemoteShardConformance, BackendSurfaceReflectsTheWorker) {
  LoopbackWorker worker(archives().keys);
  RemoteShard shard(quick_remote(worker.port()));

  EXPECT_TRUE(shard.healthy());
  const auto keys = shard.model_keys();
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()),
            std::set<std::string>(archives().keys.begin(),
                                  archives().keys.end()));
  EXPECT_TRUE(shard.has_model("smote"));
  EXPECT_FALSE(shard.has_model("no-such-model"));
  EXPECT_FALSE(shard.model_resident("smote"));  // nothing sampled yet

  (void)shard.sample(make_job({"smote", 77}));
  EXPECT_TRUE(shard.model_resident("smote"));

  const auto stats = shard.stats();
  EXPECT_GE(stats.submitted, 1u);
  EXPECT_GE(stats.completed, 1u);
  EXPECT_GE(stats.host.loads, 1u);
  EXPECT_FALSE(shard.cancel(0));        // the no-job sentinel
  EXPECT_FALSE(shard.cancel(999999));   // unknown remote id
}

TEST(RemoteShardConformance, UnknownModelFailsTheFutureNotTheSubmit) {
  // Mirrors the local SampleService: the submit is accepted and the error
  // arrives on the future, so pool routing treats both shards alike.
  LoopbackWorker worker({"smote"});
  RemoteShard shard(quick_remote(worker.port()));
  auto submitted = shard.submit_job(make_job({"no-such-model", 1}));
  EXPECT_THROW((void)submitted.future.get(), std::invalid_argument);
}

TEST(RemoteShardConformance, DeadWorkerSubmitIsTypedTransportError) {
  RemoteShard shard(quick_remote(closed_port()));
  EXPECT_THROW((void)shard.submit_job(make_job({"smote", 1})),
               net::TransportError);
  EXPECT_FALSE(shard.healthy(0.5));
  // Stats degrade to zeros instead of throwing (pool aggregation must
  // survive a dead worker).
  const auto stats = shard.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// ------------------------------------------------------------ mixed pools --

std::unique_ptr<ShardPool> make_mixed_pool(
    std::size_t local_shards, const std::vector<std::uint16_t>& worker_ports,
    std::size_t replicas) {
  ShardPoolConfig cfg;
  cfg.shards = local_shards;
  cfg.replication = replicas;
  cfg.host.capacity = archives().keys.size();
  for (const std::uint16_t port : worker_ports) {
    cfg.remotes.push_back(quick_remote(port));
  }
  auto pool = std::make_unique<ShardPool>(cfg);
  for (const auto& key : archives().keys) {
    pool->register_archive(key, archives().path(key));
  }
  return pool;
}

TEST(MixedPool, LocalAndRemoteShardsAreBitwiseIdenticalToDirectHost) {
  LoopbackWorker worker_a(archives().keys);
  LoopbackWorker worker_b(archives().keys);
  auto pool =
      make_mixed_pool(1, {worker_a.port(), worker_b.port()}, /*replicas=*/2);
  ASSERT_EQ(pool->shards(), 3u);
  ASSERT_EQ(pool->local_shards(), 1u);
  EXPECT_TRUE(pool->shard_is_local(0));
  EXPECT_FALSE(pool->shard_is_local(1));
  EXPECT_FALSE(pool->shard_is_local(2));
  EXPECT_THROW((void)pool->service(1), std::logic_error);
  EXPECT_THROW((void)pool->host(2), std::logic_error);

  for (const auto& id : job_grid()) {
    SCOPED_TRACE(id.model + " seed " + std::to_string(id.seed));
    expect_tables_identical(pool->sample(make_job(id)), direct_sample(id));
  }
  const ShardStats ss = pool->shard_stats();
  EXPECT_EQ(ss.routed, job_grid().size());
  EXPECT_EQ(ss.rerouted_transport, 0u);  // everyone was alive
}

TEST(MixedPool, RegisterFittedWithARemoteOwnerThrows) {
  LoopbackWorker worker(archives().keys);
  // Replication spans every shard, so some owner of any key is remote.
  ShardPoolConfig cfg;
  cfg.shards = 1;
  cfg.replication = 2;
  cfg.host.capacity = 2;
  cfg.remotes.push_back(quick_remote(worker.port()));
  ShardPool pool(cfg);

  models::TrainBudget budget;
  budget.epochs = 2;
  auto model = models::make_generator("smote", budget, 7);
  model->fit(cluster_table(120, 5));
  EXPECT_THROW(
      pool.register_fitted("smote",
                           std::shared_ptr<models::TabularGenerator>(
                               std::move(model))),
      std::invalid_argument);
}

TEST(MixedPool, RegisterArchiveVerifiesARemoteOwnerServesTheKey) {
  // The worker only serves smote; registering tvae on a pool whose every
  // key is replicated onto that worker must fail loudly at registration,
  // not at first submit.
  LoopbackWorker worker({"smote"});
  ShardPoolConfig cfg;
  cfg.shards = 1;
  cfg.replication = 2;
  cfg.host.capacity = 2;
  cfg.remotes.push_back(quick_remote(worker.port()));
  ShardPool pool(cfg);
  EXPECT_NO_THROW(pool.register_archive("smote", archives().path("smote")));
  EXPECT_THROW(pool.register_archive("tvae", archives().path("tvae")),
               std::runtime_error);
}

// ------------------------------------------------------ transport reroute --

TEST(TransportReroute, DeadRemoteReroutesToLocalReplicaWithSameBytes) {
  // Register against a live worker, then stop it: the pool now holds a
  // dead remote replica for every key (replication 2 over 2 shards).
  auto worker = std::make_unique<LoopbackWorker>(archives().keys);
  auto pool = make_mixed_pool(1, {worker->port()}, /*replicas=*/2);
  worker->endpoint->server.stop();

  // Sculpt the lease order: park a job on the paused local shard so its
  // depth (1) exceeds the dead remote's (0) — the router must try the dead
  // shard FIRST, eat the typed transport failure, and re-route.
  pool->service(0).pause();
  SampleJob filler = make_job({"smote", 501});
  auto filler_future = pool->service(0).submit(filler);

  const JobId id{"tvae", 99};
  auto submitted = pool->submit_job(make_job(id));
  const auto [shard, local_id] = pool->decode_job_id(submitted.job_id);
  EXPECT_EQ(shard, 0u);  // landed on the live local replica
  EXPECT_GT(local_id, 0u);
  const ShardStats ss = pool->shard_stats();
  EXPECT_EQ(ss.rerouted_transport, 1u);
  EXPECT_EQ(ss.rerouted, 0u);  // transport failures are counted apart

  pool->service(0).resume();
  EXPECT_EQ(filler_future.get().table.num_rows(), kRows);
  expect_tables_identical(submitted.future.get().table, direct_sample(id));
}

TEST(TransportReroute, EveryReplicaDeadSurfacesTheTransportError) {
  auto worker = std::make_unique<LoopbackWorker>(archives().keys);
  ShardPoolConfig cfg;
  cfg.shards = 0;  // remote-only pool
  cfg.replication = 1;
  cfg.host.capacity = 2;
  cfg.remotes.push_back(quick_remote(worker->port()));
  ShardPool pool(cfg);
  pool.register_archive("smote", archives().path("smote"));
  worker->endpoint->server.stop();
  EXPECT_THROW((void)pool.submit_job(make_job({"smote", 1})),
               net::TransportError);
  EXPECT_EQ(pool.shard_stats().rerouted_transport, 0u);  // nowhere to go
}

// -------------------------------------------------- true multi-process --

#ifdef SURRO_CLI_PATH
TEST(MultiProcess, FleetConformanceKillOneRerouteAndGracefulExit) {
  WorkerFleetConfig fleet_cfg;
  fleet_cfg.cli_path = SURRO_CLI_PATH;
  fleet_cfg.workers = 2;
  // A killed worker makes the fleet keep its logs; keep them in this
  // file's own temp dir, which is removed at exit.
  fleet_cfg.scratch_dir = (archives().dir / "kill_fleet").string();
  std::filesystem::create_directories(fleet_cfg.scratch_dir);
  fleet_cfg.serve_args = {"--models-dir", archives().dir.string(),
                          "--capacity",
                          std::to_string(archives().keys.size()),
                          "--serve-seconds", "300"};
  WorkerFleet fleet(fleet_cfg);
  fleet.start();
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_TRUE(fleet.alive(0));
  EXPECT_TRUE(fleet.alive(1));

  // Mixed pool across REAL process boundaries: 1 local + 2 workers,
  // replication 2 — every key has owners in at least two processes.
  auto pool =
      make_mixed_pool(1, {fleet.port(0), fleet.port(1)}, /*replicas=*/2);
  for (const auto& id : job_grid()) {
    SCOPED_TRACE(id.model + " seed " + std::to_string(id.seed));
    expect_tables_identical(pool->sample(make_job(id)), direct_sample(id));
  }

  // Fault injection: SIGKILL one worker, then run the whole grid again.
  // Keys owned by the dead worker re-route (counted in
  // rerouted_transport); nobody's bytes change.
  fleet.kill_one(1);
  EXPECT_FALSE(fleet.alive(1));
  for (const auto& id : job_grid()) {
    SCOPED_TRACE("post-kill " + id.model + " seed " +
                 std::to_string(id.seed));
    expect_tables_identical(pool->sample(make_job(id)), direct_sample(id));
  }
  const ShardStats ss = pool->shard_stats();
  EXPECT_EQ(ss.routed, 2 * job_grid().size());

  // The surviving worker dies by SIGTERM and must exit 0 — the graceful
  // drain path. (The SIGKILLed one reports 137; shutdown() returns the
  // worst, so assert on the survivor directly via a fresh fleet-wide
  // shutdown accounting.)
  pool.reset();  // close client connections before tearing workers down
  const int worst = fleet.shutdown(30.0);
  EXPECT_EQ(worst, 137) << "SIGKILLed worker dominates the worst status";
}

TEST(MultiProcess, FleetShutdownAloneIsCleanExitZero) {
  WorkerFleetConfig fleet_cfg;
  fleet_cfg.cli_path = SURRO_CLI_PATH;
  fleet_cfg.workers = 2;
  fleet_cfg.serve_args = {"--models-dir", archives().dir.string(),
                          "--serve-seconds", "300"};
  auto fleet = std::make_unique<WorkerFleet>(fleet_cfg);
  fleet->start();
  // A couple of real jobs through a remote-only pool first, so the drain
  // path has actually seen traffic.
  auto pool = make_mixed_pool(0, {fleet->port(0), fleet->port(1)},
                              /*replicas=*/2);
  expect_tables_identical(pool->sample(make_job({"smote", 11})),
                          direct_sample({"smote", 11}));
  pool.reset();
  EXPECT_EQ(fleet->shutdown(30.0), 0);  // every worker exited 0 on SIGTERM
  // A clean fleet leaves no temp dir behind.
  const std::string scratch = fleet->scratch_dir();
  ASSERT_TRUE(std::filesystem::is_directory(scratch));
  fleet.reset();
  EXPECT_FALSE(std::filesystem::exists(scratch));
}
#endif  // SURRO_CLI_PATH

}  // namespace
}  // namespace surro::serve
