#pragma once
// WorkerFleet: spawn N `surro_cli serve --worker` processes, wait until
// every one answers /healthz, and tear them down with SIGTERM on exit.
// The process-management backbone of `surro_cli fleet`, the benchmark's
// fleet_open workload, and the cross-process conformance tests — each
// worker binds an ephemeral port and reports it through a --port-file, so
// fleets never race over fixed port numbers.
//
// Teardown contract: workers handle SIGTERM by stopping accepts, draining
// in-flight jobs, and exiting 0 (the serve --listen graceful-shutdown
// path), so shutdown() returning 0 is itself an assertion that every
// worker died cleanly. kill_one() (SIGKILL) exists for fault injection:
// the re-route tests prove a murdered worker never changes bytes.

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace surro::serve {

struct WorkerFleetConfig {
  /// Path to the surro_cli binary to exec.
  std::string cli_path;
  /// Arguments appended after `serve --worker --listen 0 --port-file F`
  /// for every worker (model registrations, capacity, admission knobs).
  std::vector<std::string> serve_args;
  std::size_t workers = 1;
  double ready_timeout_seconds = 60.0;
  /// Where port files and worker logs live; empty = a fresh temp dir.
  std::string scratch_dir;
  /// Workers inherit stdout/stderr when true; otherwise each worker logs
  /// to <scratch>/worker<i>.log.
  bool inherit_output = false;
};

class WorkerFleet {
 public:
  explicit WorkerFleet(WorkerFleetConfig cfg);
  /// SIGKILLs anything still alive (call shutdown() first for the
  /// graceful path). A temp dir the fleet made itself is deleted when
  /// every worker exited 0, and kept after any other ending.
  ~WorkerFleet();

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Fork+exec every worker, then block until each port file appears and
  /// its /healthz answers. Throws std::runtime_error on spawn failure or
  /// readiness timeout (any already-spawned workers are killed).
  void start();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }
  [[nodiscard]] std::uint16_t port(std::size_t i) const;
  [[nodiscard]] pid_t pid(std::size_t i) const;
  [[nodiscard]] bool alive(std::size_t i) const;
  [[nodiscard]] const std::string& scratch_dir() const noexcept {
    return scratch_;
  }

  /// Fault injection: deliver `sig` (default SIGKILL) to worker `i`.
  void kill_one(std::size_t i, int sig = 9);

  /// SIGTERM every live worker and wait up to `timeout_seconds` for each
  /// to exit. Returns the worst exit status observed: 0 = every worker
  /// shut down gracefully; a worker that had to be SIGKILLed after the
  /// timeout counts as 137. Idempotent.
  int shutdown(double timeout_seconds = 20.0);

 private:
  struct Worker {
    pid_t pid = -1;
    std::uint16_t port = 0;
    std::string port_file;
    std::string log_file;
    bool reaped = false;
    int exit_status = 0;
  };

  void spawn(std::size_t index);
  void kill_all() noexcept;

  WorkerFleetConfig cfg_;
  std::string scratch_;
  bool owns_scratch_ = false;
  std::vector<Worker> workers_;
};

}  // namespace surro::serve
