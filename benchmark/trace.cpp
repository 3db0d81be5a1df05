#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace surro::benchmark {

SpanId Tracer::begin(const char* name, SpanId parent, std::uint64_t job,
                     std::string tag) {
  if (!enabled_) return kNoSpan;
  const double t = now();
  return add(name, t, t, parent, job, std::move(tag));
}

void Tracer::end(SpanId id) {
  if (id == kNoSpan) return;
  const double t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = t;
}

SpanId Tracer::add(const char* name, double start, double end, SpanId parent,
                   std::uint64_t job, std::string tag) {
  if (!enabled_) return kNoSpan;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, std::move(tag), start, end, parent, job});
  return static_cast<SpanId>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

/// Length of the union of `intervals`, each clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

}  // namespace

ShareTable self_time_table(const std::vector<Span>& spans,
                           const std::string& root) {
  const std::size_t n = spans.size();
  std::vector<std::vector<std::pair<double, double>>> children(n);
  std::vector<SpanId> root_of(n, kNoSpan);
  for (std::size_t i = 0; i < n; ++i) {
    const SpanId p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < n) {
      children[static_cast<std::size_t>(p)].emplace_back(spans[i].start,
                                                         spans[i].end);
    }
  }
  // Parents are always recorded before their children, so one forward
  // pass resolves every span's root.
  for (std::size_t i = 0; i < n; ++i) {
    const SpanId p = spans[i].parent;
    root_of[i] = p < 0 ? static_cast<SpanId>(i)
                       : root_of[static_cast<std::size_t>(p)];
  }

  std::map<std::string, SelfTime> rows;
  std::vector<std::pair<double, double>> roots;  // (duration, covered)
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& root_span = spans[static_cast<std::size_t>(root_of[i])];
    if (root_span.name != root) continue;
    const Span& s = spans[i];
    const double cover = covered(children[i], s.start, s.end);
    SelfTime& row = rows[s.name];
    row.name = s.name;
    row.self_seconds += std::max(s.end - s.start - cover, 0.0);
    ++row.spans;
    if (s.parent < 0) {
      total += s.end - s.start;
      roots.emplace_back(s.end - s.start, cover);
    }
  }
  ShareTable table;
  for (auto& [name, row] : rows) {
    row.share = total > 0.0 ? row.self_seconds / total : 0.0;
    table.rows.push_back(row);
  }
  std::sort(table.rows.begin(), table.rows.end(),
            [](const SelfTime& a, const SelfTime& b) {
              return a.self_seconds > b.self_seconds;
            });
  if (!roots.empty()) {
    auto mid = roots.begin() + static_cast<std::ptrdiff_t>(roots.size() / 2);
    std::nth_element(roots.begin(), mid, roots.end());
    table.median_job_coverage = mid->first > 0.0 ? mid->second / mid->first
                                                 : 1.0;
  }
  return table;
}

void write_trace_json(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans,
                      const ShareTable& table) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("kind", "surro_benchmark_trace");
  w.kv("workload", workload);
  w.kv("median_job_coverage", table.median_job_coverage);
  w.key("self_time").begin_array();
  for (const auto& row : table.rows) {
    w.begin_object();
    w.kv("name", row.name);
    w.kv("spans", row.spans);
    w.kv("self_ms", row.self_seconds * 1e3);
    w.kv("share", row.share);
    w.end_object();
  }
  w.end_array();
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.begin_object();
    w.kv("id", i);
    w.kv("name", s.name);
    if (!s.tag.empty()) w.kv("tag", s.tag);
    w.kv("start_ms", s.start * 1e3);
    w.kv("end_ms", s.end * 1e3);
    w.kv("parent", s.parent);
    w.kv("job", s.job);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << w.str() << '\n';
}

}  // namespace surro::benchmark
