#pragma once
// In-memory span recorder for the benchmark's traced runs. A span is one
// timed call into a library layer, recorded from the benchmark's side of
// the call: name, start, end, the span that caused it and the job it
// belongs to. Spans stay in memory until the run ends, when trace.json is
// written and each layer's self time (its duration minus the part its
// child spans cover) is folded into a share table.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace surro::benchmark {

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct Span {
  std::string name;    ///< "<layer>.<call>", e.g. "models.fit"
  std::string tag;     ///< model key or other qualifier ("" = none)
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  SpanId parent = kNoSpan;
  std::uint64_t job = 0;
};

/// Thread-safe span recorder. While disabled every call is a no-op that
/// returns kNoSpan, so untraced runs pay one branch per call site.
class Tracer {
 public:
  void set_enabled(bool on) noexcept { enabled_.store(on); }
  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(); }
  /// Seconds since construction on the steady clock.
  [[nodiscard]] double now() const noexcept { return clock_.seconds(); }

  SpanId begin(const char* name, SpanId parent = kNoSpan,
               std::uint64_t job = 0, std::string tag = {});
  void end(SpanId id);
  /// Record a span whose interval is already known — for durations a
  /// layer reports about itself (a job's queue wait, from SampleResult).
  SpanId add(const char* name, double start, double end, SpanId parent,
             std::uint64_t job = 0, std::string tag = {});

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  util::Stopwatch clock_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Time `fn()` as one span and return its result.
template <typename Fn>
auto traced(Tracer& tracer, const char* name, SpanId parent,
            std::uint64_t job, const std::string& tag, Fn&& fn) {
  const SpanId id = tracer.begin(name, parent, job, tag);
  struct Closer {
    Tracer& tracer;
    SpanId id;
    ~Closer() { tracer.end(id); }
  } closer{tracer, id};
  return fn();
}

/// One row of the share table: a span name (or name group) and the self
/// time it accounts for within the measured jobs.
struct SelfTime {
  std::string name;
  double self_seconds = 0.0;
  double share = 0.0;  ///< self_seconds / summed root-span duration
  std::size_t spans = 0;
};

struct ShareTable {
  std::vector<SelfTime> rows;  ///< largest self time first
  /// Share of the median-latency job that its child spans cover: how much
  /// of what the client saw the timed layers account for.
  double median_job_coverage = 0.0;
};

/// Self time per span name, over the spans descending from root spans
/// named `root` (the measured jobs; set-up spans are left out). The root's
/// own self time appears under its name: the client-side time no layer
/// span covers.
[[nodiscard]] ShareTable self_time_table(const std::vector<Span>& spans,
                                         const std::string& root);

/// Write spans plus the share table as trace.json (format: README.md).
void write_trace_json(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans,
                      const ShareTable& table);

}  // namespace surro::benchmark
