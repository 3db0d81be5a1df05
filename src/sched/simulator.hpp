#pragma once
// Event-driven multi-site job scheduler — the downstream system the paper's
// surrogate data is meant to feed ("more realistic workload inputs to
// calibrate large-scale event-based simulations", Sec. VI, and the data
// placement / job allocation loop of Fig. 2). Sites have core capacities;
// jobs arrive at their creation times, an AllocationPolicy picks a site,
// and the simulator tracks queueing, utilization, and cross-site data
// movement (jobs executed away from their data's home site transfer their
// input bytes).
//
// The digital-twin subsystem (src/twin) drives this simulator with
// surrogate-generated job streams under disruption scenarios, so the
// simulator carries two production-minded extensions:
//   * outage masks — half-open [start_day, end_day) windows during which a
//     site starts no new jobs (running jobs drain; queued jobs resume when
//     the outage lifts, woken by an explicit outage-end event);
//   * a feasibility guard — a site whose scaled capacity rounds to zero
//     cores, a site inside an outage at placement time, or a site smaller
//     than the job's core request is never a placement target. Policies
//     are given the capacity/availability view to avoid such sites; if one
//     slips through anyway the simulator deterministically redirects the
//     job to the least-loaded feasible site (counted in
//     SimMetrics::redirected_jobs) instead of letting it stall forever.

#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "panda/site_catalog.hpp"
#include "tabular/table.hpp"
#include "util/rng.hpp"

namespace surro::sched {

struct SimJob {
  double submit_time = 0.0;   // days
  double cpu_hours = 0.0;     // single-core CPU-hours of work
  std::uint32_t cores = 1;
  std::size_t home_site = 0;  // where the input data lives
  double input_bytes = 0.0;
};

/// One planned site outage: the site admits no new job starts inside the
/// half-open window [start_day, end_day). Jobs already running keep
/// running (a drain, not a crash); jobs queued at the site wait for the
/// window to close.
struct Outage {
  std::size_t site = 0;
  double start_day = 0.0;
  double end_day = 0.0;
};

/// Snapshot handed to a policy when a job must be placed.
struct ClusterState {
  const panda::SiteCatalog* catalog = nullptr;
  /// Cores currently busy per site.
  std::vector<std::size_t> busy_cores;
  /// Jobs waiting per site (already committed to that site).
  std::vector<std::size_t> queued_jobs;
  /// Scaled core capacity per site (may be 0 after rounding — such a site
  /// is never a valid placement target).
  std::vector<std::size_t> capacity;
  /// 1 = the site is outside every outage window right now.
  std::vector<std::uint8_t> available;
  /// Simulation clock at the placement decision (days).
  double now = 0.0;

  /// True when `site` can eventually run `job`: non-zero capacity at least
  /// the job's core request, and not inside an outage window right now.
  [[nodiscard]] bool placeable(const SimJob& job, std::size_t site) const {
    return site < capacity.size() &&
           (available.empty() || available[site] != 0) &&
           capacity[site] >= job.cores && capacity[site] > 0;
  }
};

struct SimMetrics {
  double mean_wait_hours = 0.0;
  double p95_wait_hours = 0.0;
  double mean_utilization = 0.0;     // busy-core fraction, time-averaged
  double transferred_bytes = 0.0;    // moved off the home site
  double makespan_days = 0.0;
  std::size_t completed_jobs = 0;
  // --- per-site fairness (the twin's starvation axis) ---------------------
  /// Mean queue wait of the jobs each site actually ran (0 for idle sites).
  std::vector<double> site_mean_wait_hours;
  /// Jobs completed per site.
  std::vector<std::size_t> site_completed;
  /// Worst per-site mean wait.
  double max_site_mean_wait_hours = 0.0;
  /// max-site-mean-wait / overall-mean-wait: 1.0 = perfectly even waiting,
  /// large = one site is starving its queue (see starvation_index()).
  double starvation_index = 0.0;
  // --- feasibility-guard accounting ---------------------------------------
  /// Jobs whose policy choice was infeasible (zero capacity, in outage, or
  /// too small for the core request) and were redirected deterministically.
  std::size_t redirected_jobs = 0;
  /// Jobs whose core request exceeded every site and were clamped to the
  /// largest available site's capacity so they could still complete.
  std::size_t clamped_jobs = 0;
};

/// The starvation arithmetic, exposed for direct testing: given per-site
/// mean waits (hours) and per-site completion counts, returns
/// max-site-mean / overall-mean where the overall mean is completion-count
/// weighted. 0.0 when nothing completed; 1.0 when every wait was zero
/// (nobody starved because nobody waited).
[[nodiscard]] double starvation_index(
    std::span<const double> site_mean_wait_hours,
    std::span<const std::size_t> site_completed);

/// Order-stable FNV-1a digest over every metric bit pattern (including the
/// per-site vectors). Two SimMetrics compare bitwise-equal iff their
/// digests match — the twin's cross-run / cross-thread determinism probe.
[[nodiscard]] std::uint64_t metrics_digest(const SimMetrics& m);

struct SimConfig {
  /// Scale factor on every site's core count (shrinks the grid so a
  /// laptop-scale job stream can saturate it). Sites whose scaled capacity
  /// floors to zero cores stay in the catalog but are excluded from
  /// placement by the feasibility guard.
  double capacity_scale = 0.01;
  /// Per-core speed multiplier from the site's HS23 score over reference.
  bool hs23_aware_runtime = true;
};

class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;
  [[nodiscard]] virtual std::size_t place(const SimJob& job,
                                          const ClusterState& state,
                                          util::Rng& rng) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

class ClusterSimulator {
 public:
  ClusterSimulator(const panda::SiteCatalog& catalog, SimConfig cfg);

  /// Run the job stream (sorted internally by submit time) under a policy,
  /// optionally with planned site outages. Deterministic in
  /// (jobs, policy, seed, outages) — never in thread count or wall clock.
  [[nodiscard]] SimMetrics run(std::vector<SimJob> jobs,
                               AllocationPolicy& policy, std::uint64_t seed,
                               const std::vector<Outage>& outages);
  [[nodiscard]] SimMetrics run(std::vector<SimJob> jobs,
                               AllocationPolicy& policy, std::uint64_t seed) {
    return run(std::move(jobs), policy, seed, {});
  }

  [[nodiscard]] const panda::SiteCatalog& catalog() const noexcept {
    return *catalog_;
  }
  /// Scaled per-site capacities (zero entries are unplaceable sites).
  [[nodiscard]] const std::vector<std::size_t>& capacity() const noexcept {
    return capacity_;
  }

 private:
  const panda::SiteCatalog* catalog_;
  SimConfig cfg_;
  std::vector<std::size_t> capacity_;
};

/// Convert job-table rows into simulator jobs. Workload (GFLOP-hours) is
/// converted back to CPU-hours at the home site's per-core GFLOP rate.
/// Legacy shared-RNG path (kept for `surro_cli simulate` compatibility) —
/// new code should prefer twin::WorkloadBridge, whose per-row derived
/// streams make every job independent of its neighbours.
[[nodiscard]] std::vector<SimJob> jobs_from_table(
    const tabular::Table& table, const panda::SiteCatalog& catalog,
    std::uint64_t seed);

}  // namespace surro::sched
