#include "serve/worker_fleet.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "net/client.hpp"
#include "util/timer.hpp"

namespace surro::serve {

namespace {

/// Sentinel wait-status for a pid waitpid() refused to report on (ECHILD):
/// decodes as "exited with 127" so shutdown() surfaces it as a failure
/// instead of a stale zero.
constexpr int kLostWaitStatus = 127 << 8;

std::string make_scratch_dir() {
  char tmpl[] = "/tmp/surro_fleet_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    throw std::runtime_error("worker fleet: mkdtemp failed: " +
                             std::string(std::strerror(errno)));
  }
  return tmpl;
}

/// Read "12345\n" from a worker's --port-file; 0 while absent/incomplete.
/// The worker publishes via rename() so the file is normally atomic, but
/// the trailing-newline check also rejects any partially-written prefix
/// ("12" of "12345") that would otherwise parse as a valid — wrong — port.
std::uint16_t read_port_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') return 0;
  text.pop_back();
  unsigned port = 0;
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), port);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size() ||
      port == 0 || port > 65535) {
    return 0;
  }
  return static_cast<std::uint16_t>(port);
}

}  // namespace

WorkerFleet::WorkerFleet(WorkerFleetConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.cli_path.empty()) {
    throw std::invalid_argument("worker fleet: cli_path is required");
  }
  if (cfg_.workers == 0) {
    throw std::invalid_argument("worker fleet: needs at least one worker");
  }
  owns_scratch_ = cfg_.scratch_dir.empty();
  scratch_ = owns_scratch_ ? make_scratch_dir() : cfg_.scratch_dir;
}

WorkerFleet::~WorkerFleet() {
  kill_all();
  // Keep the logs after any unclean ending: the errors from start() and
  // `surro_cli fleet` point at them.
  const bool clean = std::all_of(
      workers_.begin(), workers_.end(), [](const Worker& w) {
        return WIFEXITED(w.exit_status) && WEXITSTATUS(w.exit_status) == 0;
      });
  if (owns_scratch_ && clean) {
    std::error_code ec;
    std::filesystem::remove_all(scratch_, ec);
  }
}

void WorkerFleet::spawn(std::size_t index) {
  Worker w;
  w.port_file = scratch_ + "/worker" + std::to_string(index) + ".port";
  w.log_file = scratch_ + "/worker" + std::to_string(index) + ".log";
  std::remove(w.port_file.c_str());

  std::vector<std::string> args = {cfg_.cli_path,  "serve",
                                   "--worker",     "--listen",
                                   "0",            "--port-file",
                                   w.port_file};
  args.insert(args.end(), cfg_.serve_args.begin(), cfg_.serve_args.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("worker fleet: fork failed: " +
                             std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: give the worker its own process group so a caller's Ctrl-C
    // does not nuke the fleet before shutdown() can run the graceful path.
    ::setpgid(0, 0);
    if (!cfg_.inherit_output) {
      const int fd =
          ::open(w.log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
    }
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "worker fleet: execv %s failed: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  w.pid = pid;
  workers_.push_back(std::move(w));
}

void WorkerFleet::start() {
  workers_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) spawn(i);

  // Readiness: the port file materializes once the worker bound its
  // ephemeral port, then /healthz confirms the accept loop is live.
  util::Stopwatch clock;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    for (;;) {
      if (clock.seconds() > cfg_.ready_timeout_seconds) {
        kill_all();
        throw std::runtime_error("worker fleet: worker " + std::to_string(i) +
                                 " not ready after " +
                                 std::to_string(cfg_.ready_timeout_seconds) +
                                 "s (see " + w.log_file + ")");
      }
      if (!alive(i)) {
        kill_all();
        throw std::runtime_error("worker fleet: worker " + std::to_string(i) +
                                 " exited during startup (see " + w.log_file +
                                 ")");
      }
      if (w.port == 0) w.port = read_port_file(w.port_file);
      if (w.port != 0) {
        net::ApiClient probe("127.0.0.1", w.port, "",
                             net::ClientConfig{1.0, 1, 0.0, 0.0});
        if (probe.healthy(1.0)) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

std::uint16_t WorkerFleet::port(std::size_t i) const {
  return workers_.at(i).port;
}

pid_t WorkerFleet::pid(std::size_t i) const { return workers_.at(i).pid; }

bool WorkerFleet::alive(std::size_t i) const {
  const Worker& w = workers_.at(i);
  if (w.pid < 0 || w.reaped) return false;
  int status = 0;
  const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
  if (r == w.pid) {
    auto& mut = const_cast<Worker&>(w);
    mut.reaped = true;
    mut.exit_status = status;
    return false;
  }
  if (r < 0) {
    // ECHILD etc.: the pid is no longer ours to track, and may already be
    // recycled by an unrelated process. Mark it reaped so kill_all() /
    // shutdown() never signal it.
    auto& mut = const_cast<Worker&>(w);
    mut.reaped = true;
    mut.exit_status = kLostWaitStatus;
    return false;
  }
  return r == 0;
}

void WorkerFleet::kill_one(std::size_t i, int sig) {
  Worker& w = workers_.at(i);
  if (w.pid < 0 || w.reaped) return;
  ::kill(w.pid, sig);
  if (sig == SIGKILL) {
    ::waitpid(w.pid, &w.exit_status, 0);
    w.reaped = true;
  }
}

int WorkerFleet::shutdown(double timeout_seconds) {
  int worst = 0;
  for (auto& w : workers_) {
    if (w.pid < 0 || w.reaped) continue;
    ::kill(w.pid, SIGTERM);
  }
  util::Stopwatch clock;
  for (auto& w : workers_) {
    if (w.pid < 0) continue;
    while (!w.reaped) {
      int status = 0;
      const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      if (r == w.pid) {
        w.reaped = true;
        w.exit_status = status;
        break;
      }
      if (r < 0) {
        // Same as alive(): never escalate to SIGKILL on a pid we can no
        // longer wait on — it may have been recycled.
        w.reaped = true;
        w.exit_status = kLostWaitStatus;
        break;
      }
      if (clock.seconds() > timeout_seconds) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &status, 0);
        w.reaped = true;
        w.exit_status = status;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    int code = 0;
    if (WIFEXITED(w.exit_status)) {
      code = WEXITSTATUS(w.exit_status);
    } else if (WIFSIGNALED(w.exit_status)) {
      code = 128 + WTERMSIG(w.exit_status);
    }
    worst = std::max(worst, code);
  }
  return worst;
}

void WorkerFleet::kill_all() noexcept {
  for (auto& w : workers_) {
    if (w.pid < 0 || w.reaped) continue;
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, &w.exit_status, 0);
    w.reaped = true;
  }
}

}  // namespace surro::serve
