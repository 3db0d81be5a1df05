#include "serve/replay.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <istream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "linalg/simd.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"
#include "util/stringx.hpp"

namespace surro::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t bits) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (bits >> shift) & 0xFF;
    h *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  h ^= 0xFF;  // length-free terminator so "ab","c" != "a","bc"
  h *= kFnvPrime;
}

/// One script request from its JSON object (both script forms): the job
/// fields through serve::read_sample_job, plus replay's own fan-out.
ReplayRequest read_request(const util::JsonValue& doc) {
  ReplayRequest request;
  request.job = read_sample_job(doc);
  for (const auto& [key, value] : doc.object) {
    try {
      if (key == "repeat") {
        request.repeat = static_cast<std::size_t>(
            value.as_integer(1, std::int64_t{1} << 20));
      } else if (key == "seed_stride") {
        request.seed_stride = static_cast<std::uint64_t>(
            value.as_integer(0, std::int64_t{1} << 53));
      } else if (!is_sample_job_field(key)) {
        throw std::runtime_error("unknown field");
      }
    } catch (const std::exception& e) {
      throw std::runtime_error("'" + key + "': " + e.what());
    }
  }
  if (request.job.model_key.empty()) {
    throw std::runtime_error("request needs a model");
  }
  if (request.job.rows == 0) {
    throw std::runtime_error("request needs rows > 0");
  }
  return request;
}

}  // namespace

ReplayScript parse_script_jsonl(std::istream& is) {
  ReplayScript script;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    try {
      script.requests.push_back(read_request(util::parse_json(trimmed)));
    } catch (const std::exception& e) {
      throw std::runtime_error("request script line " +
                               std::to_string(line_no) + ": " + e.what());
    }
  }
  return script;
}

ReplayScript parse_script_inline(const std::string& spec) {
  ReplayScript script;
  for (const auto& text : util::split_list(spec, ';')) {
    // The JSON object this request's key=value pairs spell: "model" is a
    // string, every other value a number.
    util::JsonValue doc;
    doc.kind = util::JsonValue::Kind::kObject;
    for (const auto& pair : util::split_list(text, ',')) {
      std::string key;
      std::string raw;
      if (!util::split_key_value(pair, key, raw)) {
        throw std::runtime_error("bad request field '" + pair +
                                 "' (want key=value)");
      }
      util::JsonValue& value = doc.object[key];
      if (key == "model") {
        value.kind = util::JsonValue::Kind::kString;
        value.string = raw;
        continue;
      }
      value.kind = util::JsonValue::Kind::kNumber;
      if (!util::parse_double(raw, value.number)) {
        throw std::runtime_error("bad numeric value '" + raw +
                                 "' for field '" + key + "'");
      }
    }
    script.requests.push_back(read_request(doc));
  }
  return script;
}

std::uint64_t hash_table(const tabular::Table& table) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(table.num_rows()));
  for (const std::size_t col : table.schema().numerical_indices()) {
    for (const double v : table.numerical(col)) {
      fnv_mix(h, std::bit_cast<std::uint64_t>(v));
    }
  }
  for (const std::size_t col : table.schema().categorical_indices()) {
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      fnv_mix(h, table.label_at(col, r));
    }
  }
  return h;
}

std::uint64_t expected_digest(ModelHost& host, const SampleJob& job) {
  models::SampleRequest request;
  request.rows = job.rows;
  request.seed = job.seed;
  request.chunk_rows = job.chunk_rows;
  request.threads = 1;
  tabular::Table table;
  host.acquire(job.model_key)->sample_into(table, request);
  return hash_table(table);
}

LoadRun drive_load(const std::vector<SampleBackend*>& targets,
                   const LoadPlan& plan) {
  const bool paced = plan.rate_per_client > 0.0;
  const std::size_t clients = plan.jobs > 0
                                  ? std::min(plan.clients, plan.jobs)
                                  : plan.clients;
  if (targets.empty() || clients == 0 || (plan.jobs == 0 && !paced) ||
      (paced && plan.arrival_seeds.size() < clients)) {
    throw std::invalid_argument("drive_load: needs targets, clients, and a "
                                "job count or a rate with one arrival seed "
                                "per client");
  }
  struct Tally {
    LoadCounts counts;
    std::vector<ServedJob> served;
  };
  std::vector<Tally> tallies(clients);
  // Safety valve: even a badly misestimated rate cannot stretch a paced run
  // past 20x its nominal window.
  const double hard_stop = plan.window_seconds * 20.0;

  // Dedicated client threads (not pool workers — clients block on futures,
  // and the pool is busy sampling underneath them). Overload outcomes are
  // tallied per kind: a run against a bounded service is *expected* to
  // drop work, and those drops must not read as execution failures.
  const auto client = [&](std::size_t c) {
    Tally& tally = tallies[c];
    SampleBackend& target = *targets[c % targets.size()];
    util::Rng arrivals(paced ? plan.arrival_seeds[c] : 0);
    util::Stopwatch clock;
    double next_at = paced ? arrivals.exponential(plan.rate_per_client) : 0.0;
    // A paced client sleeps until its next arrival; false once the window
    // has closed and the floor is met, or at the hard stop.
    const auto arrive = [&] {
      for (;;) {
        const double now = clock.seconds();
        if (now >= plan.window_seconds &&
            (tally.counts.submitted >= plan.min_jobs_per_client ||
             now >= hard_stop)) {
          return false;
        }
        if (next_at <= now) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(next_at - now, hard_stop - now)));
      }
      next_at += arrivals.exponential(plan.rate_per_client);
      return true;
    };
    std::vector<std::pair<std::size_t, std::future<SampleResult>>> in_flight;
    for (std::size_t k = c; plan.jobs == 0 || k < plan.jobs; k += clients) {
      if (paced && !arrive()) break;
      ++tally.counts.submitted;
      try {
        in_flight.emplace_back(k, target.submit(plan.job_at(k)));
      } catch (const ServiceError& e) {
        ++(e.code() == ServiceError::Code::kShed ? tally.counts.shed
                                                 : tally.counts.rejected);
      } catch (...) {
        ++tally.counts.failed;  // e.g. a transport error on a socket hop
      }
    }
    for (auto& [k, future] : in_flight) {
      try {
        const SampleResult r = future.get();
        ++tally.counts.completed;
        tally.counts.rows += r.table.num_rows();
        tally.served.push_back(
            {k, r.total_seconds * 1e3, hash_table(r.table)});
      } catch (const ServiceError& e) {
        switch (e.code()) {
          case ServiceError::Code::kShed: ++tally.counts.shed; break;
          case ServiceError::Code::kDeadline:
            ++tally.counts.deadline_missed;
            break;
          default: ++tally.counts.failed; break;
        }
      } catch (...) {
        ++tally.counts.failed;
      }
    }
  };

  util::Stopwatch wall;
  {
    std::vector<std::jthread> threads;  // joined at scope exit, even on throw
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  }

  LoadRun run;
  run.wall_seconds = wall.seconds();
  for (auto& tally : tallies) {
    run.counts.submitted += tally.counts.submitted;
    run.counts.completed += tally.counts.completed;
    run.counts.rows += tally.counts.rows;
    run.counts.rejected += tally.counts.rejected;
    run.counts.shed += tally.counts.shed;
    run.counts.deadline_missed += tally.counts.deadline_missed;
    run.counts.failed += tally.counts.failed;
    run.served.insert(run.served.end(), tally.served.begin(),
                      tally.served.end());
  }
  return run;
}

ReplayResult run_replay(SampleBackend& service, const ReplayScript& script,
                        const ReplayOptions& options) {
  std::vector<SampleJob> jobs;
  for (std::size_t round = 0; round < std::max<std::size_t>(options.rounds, 1);
       ++round) {
    // Rounds replay identical traffic: repetition k of a request always
    // uses seed + k*stride, independent of the round — so a multi-round
    // run re-requests the same streams and exercises cache reuse.
    for (const auto& request : script.requests) {
      for (std::size_t k = 0; k < request.repeat; ++k) {
        SampleJob job = request.job;
        job.seed += static_cast<std::uint64_t>(k) * request.seed_stride;
        jobs.push_back(std::move(job));
      }
    }
  }

  ReplayResult result;
  if (!jobs.empty()) {
    LoadPlan plan;
    plan.clients = std::max<std::size_t>(options.clients, 1);
    plan.jobs = jobs.size();
    plan.job_at = [&jobs](std::size_t k) { return jobs[k]; };
    const LoadRun run = drive_load({&service}, plan);
    result.counts = run.counts;
    result.wall_seconds = run.wall_seconds;
    // Sum (not XOR): identical repeated jobs must not cancel out.
    for (const ServedJob& job : run.served) result.output_hash += job.digest;
  }
  result.stats = service.stats();
  return result;
}

std::string serve_stats_to_json(const SampleBackend& service,
                                const ReplayOptions& options,
                                const ReplayResult& result) {
  const ServiceStats& s = result.stats;
  const LoadCounts& counts = result.counts;
  const ServiceConfig& cfg = service.config();
  char hash_hex[19];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(result.output_hash));

  util::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("kind", "serve_stats");
  w.kv("simd_backend", linalg::simd::active_backend_name());
  w.key("config").begin_object();
  w.kv("capacity", s.host.capacity);
  w.kv("sample_threads", cfg.sample_threads);
  w.kv("chunk_rows", cfg.chunk_rows);
  w.kv("admission", admission_policy_name(cfg.admission));
  w.kv("max_queue_depth", cfg.max_queue_depth);
  w.kv("max_queued_rows", cfg.max_queued_rows);
  w.kv("clients", options.clients);
  w.kv("rounds", options.rounds);
  w.end_object();
  w.kv("jobs", counts.submitted);
  w.kv("completed", counts.completed);
  w.kv("rows", counts.rows);
  w.kv("failures", counts.failed);
  w.kv("rejected", counts.rejected);
  w.kv("shed", counts.shed);
  w.kv("deadline_missed", counts.deadline_missed);
  w.kv("wall_seconds", result.wall_seconds);
  // Served throughput: completed jobs only — on a bounded service the
  // attempt count includes rejected/shed submits that did no work.
  w.kv("jobs_per_sec", result.wall_seconds > 0.0
                           ? static_cast<double>(counts.completed) /
                                 result.wall_seconds
                           : 0.0);
  w.kv("rows_per_sec", result.wall_seconds > 0.0
                           ? static_cast<double>(counts.rows) /
                                 result.wall_seconds
                           : 0.0);
  w.key("latency_ms").begin_object();
  w.kv("p50", s.p50_latency_ms);  // inf (empty window) degrades to null
  w.kv("p95", s.p95_latency_ms);
  w.kv("p99", s.p99_latency_ms);
  w.end_object();
  write_service_stats(w, s);
  // A sharded backend appends its "shards" section (routing table +
  // per-shard counters); a plain service appends nothing.
  service.append_stats_json(w);
  w.key("pool").begin_object();
  w.kv("workers", s.pool.workers);
  w.kv("queued", s.pool.queued);
  w.kv("active", s.pool.active);
  w.kv("submitted", s.pool.submitted);
  w.kv("completed", s.pool.completed);
  w.end_object();
  w.kv("output_hash", hash_hex);
  w.end_object();
  return w.str();
}

}  // namespace surro::serve
