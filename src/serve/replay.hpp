#pragma once
// The serving layer's load harness. drive_load is the one client loop:
// N client threads submit jobs back to back or on Poisson arrivals, sort
// every attempt into one outcome bucket and digest every returned table.
// Replay (this file) and the overload soak (serve/soak.hpp) are two
// configurations of it.
//
// Replay parses a JSONL script (one SampleJob per line) or an inline spec,
// fires it at a backend from N concurrent clients, and rolls the outcome up
// into the `serve_stats` JSON artifact that `surro_cli serve` emits and CI
// schema-validates. It records an order-independent hash over every
// returned table (sum of per-job FNV-1a digests), so two runs of the same
// script — at any client count, thread count or cache capacity — must
// produce the same `output_hash`. That makes the artifact itself a
// determinism probe, not just a throughput report.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/sample_service.hpp"

namespace surro::serve {

/// One script line: a job template plus fan-out. `repeat` submits the job
/// that many times; each repetition k uses seed + k * seed_stride, so a
/// stride of 0 replays bitwise-identical jobs and a nonzero stride sweeps
/// fresh streams.
struct ReplayRequest {
  SampleJob job;
  std::size_t repeat = 1;
  std::uint64_t seed_stride = 0;
};

struct ReplayScript {
  std::vector<ReplayRequest> requests;
};

/// JSONL: one JSON object per line, e.g. {"model": "smote", "rows": 500,
/// "seed": 7, "repeat": 4, "seed_stride": 1} — the job fields that
/// read_sample_job reads (field table in docs/SERVING.md) plus `repeat`
/// and `seed_stride`; a request needs a model and rows >= 1. Blank lines
/// and lines starting with '#' are skipped. Throws std::runtime_error
/// (with the line number) on malformed input.
[[nodiscard]] ReplayScript parse_script_jsonl(std::istream& is);

/// Inline spec: ';'-separated requests, each "key=value" pairs joined by
/// ',' with the same fields as the JSONL form, every value but the
/// model's a number — e.g.
/// "model=smote,rows=500,seed=7,repeat=4;model=tvae,rows=200".
[[nodiscard]] ReplayScript parse_script_inline(const std::string& spec);

/// Where one load run's attempts landed: every submission attempt counts in
/// `submitted` and in exactly one of completed / rejected / shed /
/// deadline_missed / failed.
struct LoadCounts {
  std::uint64_t submitted = 0;        ///< submission attempts
  std::uint64_t completed = 0;        ///< futures that delivered a table
  std::uint64_t rows = 0;             ///< rows in the delivered tables
  std::uint64_t rejected = 0;         ///< refused at admission
  std::uint64_t shed = 0;             ///< dropped by the shed policy
  std::uint64_t deadline_missed = 0;  ///< blew their deadline
  /// Anything else, at submit or on the future: an execution error, a
  /// transport error, a backend that threw.
  std::uint64_t failed = 0;
};

/// What drive_load submits, from how many clients, and how fast.
struct LoadPlan {
  std::size_t clients = 1;  ///< concurrent submitting client threads
  /// The job at plan index k. Client c submits k = c, c + clients, ...
  std::function<SampleJob(std::size_t)> job_at;
  /// Plan indices to submit; 0 = unbounded, which needs a rate.
  std::size_t jobs = 0;
  /// Poisson arrivals per client per second; 0 = back to back. A paced
  /// client stops once `window_seconds` have passed and it has made
  /// `min_jobs_per_client` attempts, and never later than 20 windows in.
  double rate_per_client = 0.0;
  double window_seconds = 0.0;
  std::size_t min_jobs_per_client = 0;
  std::vector<std::uint64_t> arrival_seeds;  ///< one per client when paced
};

/// One delivered job.
struct ServedJob {
  std::size_t index = 0;     ///< its plan index k
  double latency_ms = 0.0;   ///< SampleResult::total_seconds, in ms
  std::uint64_t digest = 0;  ///< hash_table of the delivered table
};

struct LoadRun {
  LoadCounts counts;
  std::vector<ServedJob> served;  ///< per client, in submission order
  double wall_seconds = 0.0;      ///< first submit to the last resolution
};

/// Stable digest of a table's contents (schema-ordered numerical bits +
/// categorical labels); shared by the replay hash and the serve tests.
[[nodiscard]] std::uint64_t hash_table(const tabular::Table& table);

/// The digest every backend must return for `job`: sample its identity
/// (model_key, rows, seed, chunk_rows) straight from the host's model on
/// one thread. `job.chunk_rows` must be the resolved, nonzero grain.
[[nodiscard]] std::uint64_t expected_digest(ModelHost& host,
                                            const SampleJob& job);

/// Run `plan` against `targets`: client c submits to
/// targets[c % targets.size()], then waits for its futures in submission
/// order and digests each table as it resolves. At submit, a ServiceError
/// kShed counts as shed, any other ServiceError as rejected and any other
/// exception as failed; on the future, kShed is shed, kDeadline is
/// deadline_missed and anything else is failed. Throws
/// std::invalid_argument on an empty target list or an unbounded,
/// unpaced plan.
[[nodiscard]] LoadRun drive_load(const std::vector<SampleBackend*>& targets,
                                 const LoadPlan& plan);

struct ReplayOptions {
  std::size_t clients = 1;  ///< concurrent submitting client threads
  std::size_t rounds = 1;   ///< whole-script repetitions
};

struct ReplayResult {
  /// jobs = counts.submitted, failures = counts.failed in the artifact.
  LoadCounts counts;
  double wall_seconds = 0.0;
  /// Order-independent digest over every returned table (see header).
  std::uint64_t output_hash = 0;
  /// Service snapshot taken right after the last future resolved.
  ServiceStats stats;
};

/// Expand the script (rounds × requests × repeat) and drive it back to back
/// from `clients` client threads.
[[nodiscard]] ReplayResult run_replay(SampleBackend& service,
                                      const ReplayScript& script,
                                      const ReplayOptions& options);

/// The `serve_stats` artifact (schema_version 1, kind "serve_stats").
[[nodiscard]] std::string serve_stats_to_json(const SampleBackend& service,
                                              const ReplayOptions& options,
                                              const ReplayResult& result);

}  // namespace surro::serve
