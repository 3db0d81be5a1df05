#include "models/generator.hpp"

#include <atomic>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace surro::models {

namespace {
constexpr std::uint32_t kModelArchiveVersion = 1;
}  // namespace

std::uint64_t derive_chunk_seed(std::uint64_t seed,
                                std::uint64_t chunk_index) {
  // SplitMix64 over a mix of the base seed and the chunk index; two rounds
  // keep adjacent chunks statistically decorrelated.
  std::uint64_t state = seed ^ (chunk_index * 0x9E3779B97F4A7C15ULL +
                                0xD1B54A32D192ED03ULL);
  (void)util::splitmix64(state);
  return util::splitmix64(state);
}

// ------------------------------------------------------- TabularGenerator --

void TabularGenerator::warm_fit(const tabular::Table& /*delta*/,
                                const RefreshOptions& /*opts*/) {
  throw std::logic_error(name() + ": warm_fit not supported");
}

void TabularGenerator::sample_into(tabular::Table& out,
                                   const SampleRequest& request) const {
  if (!fitted()) {
    throw std::logic_error(name() + ": sample before fit");
  }
  if (request.chunk_rows == 0) {
    throw std::invalid_argument(name() + ": chunk_rows must be positive");
  }
  if (request.rows == 0) return;

  const std::size_t num_chunks =
      (request.rows + request.chunk_rows - 1) / request.chunk_rows;
  std::vector<tabular::Table> chunks(num_chunks);
  std::mutex progress_mutex;
  std::size_t rows_done = 0;
  std::atomic<bool> stopped{false};
  // The partition and the per-chunk seeds are thread-count-independent, so
  // the output is too; sample_chunk is const, so every worker samples from
  // this one instance. request.threads caps the fan-out (0 = whole pool,
  // 1 = serial in the calling thread).
  util::parallel_for(
      0, num_chunks,
      [&](std::size_t first, std::size_t last) {
        for (std::size_t c = first; c < last; ++c) {
          if (request.stop &&
              (stopped.load(std::memory_order_relaxed) || request.stop())) {
            stopped.store(true, std::memory_order_relaxed);
            return;
          }
          const std::size_t lo = c * request.chunk_rows;
          const std::size_t n = std::min(request.chunk_rows, request.rows - lo);
          chunks[c] = sample_chunk(n, derive_chunk_seed(request.seed, c));
          if (request.on_progress) {
            const std::lock_guard lock(progress_mutex);
            rows_done += n;
            request.on_progress(rows_done, request.rows);
          }
        }
      },
      /*grain=*/1, request.threads);
  if (stopped.load(std::memory_order_relaxed)) throw SampleStopped(name());

  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (out.num_columns() == 0 && c == 0) {
      out = std::move(chunks[0]);
    } else {
      out.append_table(chunks[c]);
    }
  }
}

tabular::Table TabularGenerator::sample(std::size_t n,
                                        std::uint64_t seed) const {
  tabular::Table out;
  SampleRequest request;
  request.rows = n;
  request.seed = seed;
  sample_into(out, request);
  return out;
}

// ------------------------------------------------------- GeneratorRegistry --

GeneratorRegistry& GeneratorRegistry::instance() {
  static GeneratorRegistry registry;
  return registry;
}

void GeneratorRegistry::register_generator(GeneratorInfo info) {
  if (info.key.empty() || !info.factory) {
    throw std::invalid_argument("registry: generator needs a key + factory");
  }
  const auto [it, inserted] = infos_.emplace(info.key, std::move(info));
  if (!inserted) {
    throw std::invalid_argument("registry: duplicate generator key '" +
                                it->first + "'");
  }
}

bool GeneratorRegistry::contains(const std::string& key) const {
  return infos_.contains(key);
}

std::vector<std::string> GeneratorRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(infos_.size());
  for (const auto& [key, _] : infos_) out.push_back(key);
  return out;  // std::map iterates in sorted order
}

const GeneratorInfo& GeneratorRegistry::info(const std::string& key) const {
  const auto it = infos_.find(key);
  if (it == infos_.end()) {
    throw std::invalid_argument("registry: unknown generator '" + key + "'");
  }
  return it->second;
}

std::unique_ptr<TabularGenerator> GeneratorRegistry::create(
    const std::string& key, const TrainBudget& budget,
    std::uint64_t seed) const {
  return info(key).factory(budget, seed);
}

std::unique_ptr<TabularGenerator> make_generator(const std::string& key,
                                                 const TrainBudget& budget,
                                                 std::uint64_t seed) {
  return GeneratorRegistry::instance().create(key, budget, seed);
}

// ---------------------------------------------------------- model archive --

void save_model(const TabularGenerator& model, std::ostream& os) {
  if (!model.fitted()) {
    throw std::logic_error(model.name() + ": save before fit");
  }
  util::io::write_tag(os, "SURM");
  util::io::write_u32(os, kModelArchiveVersion);
  util::io::write_string(os, model.key());
  model.save(os);
}

std::unique_ptr<TabularGenerator> load_model(std::istream& is) {
  util::io::expect_tag(is, "SURM");
  const std::uint32_t version = util::io::read_u32(is);
  if (version != kModelArchiveVersion) {
    throw std::runtime_error("model archive: unsupported version " +
                             std::to_string(version));
  }
  const std::string key = util::io::read_string(is);
  auto model = GeneratorRegistry::instance().create(key, TrainBudget{}, 1);
  model->load(is);
  return model;
}

void save_model_file(const TabularGenerator& model, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open '" + path + "' for writing");
  save_model(model, os);
}

std::unique_ptr<TabularGenerator> load_model_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open '" + path + "' for reading");
  return load_model(is);
}

}  // namespace surro::models
