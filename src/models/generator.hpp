#pragma once
// Surrogate Model API v2 — the common interface of the paper's surrogate
// models (Sec. IV-A) plus the service-facing machinery around it.
//
// Every model consumes a mixed-type Table, learns its joint distribution,
// and emits synthetic Tables with the same schema and vocabularies. On top
// of that the v2 API adds:
//
//   * GeneratorRegistry — a string-keyed registry the four built-in models
//     (and any future surrogate) self-register with, so new models plug in
//     without touching core and CLIs enumerate models dynamically;
//   * fit(train, FitOptions) — per-epoch progress reporting and cooperative
//     cancellation;
//   * sample_into(out, SampleRequest) — chunked synthesis with per-chunk
//     seed derivation, optionally fanned out over util::ThreadPool. The
//     chunk partition depends only on (rows, seed, chunk_rows), never on
//     the thread count, so output is bitwise identical however many workers
//     run it (the ParK-style partition-and-parallelize lever,
//     arXiv:2106.12231, applied to synthetic-row generation). Sampling is
//     const and re-entrant: every chunk, job and thread shares one fitted
//     instance;
//   * save(ostream)/load(istream) — persistence of fitted state, so a model
//     trains once and serves many sampling calls (see save_model/load_model
//     for the self-describing archive format).

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tabular/table.hpp"

namespace surro::models {

/// Training-scale preset shared by the neural models so experiment harnesses
/// can trade fidelity for wall-clock uniformly.
struct TrainBudget {
  std::size_t epochs = 60;            ///< full passes over the training set
  std::size_t batch_size = 256;       ///< rows per gradient step
  float learning_rate = 2e-4f;        ///< base LR (paper Sec. V-A)
  std::size_t log_every_epochs = 0;   ///< progress log cadence (0 = silent)
};

/// Snapshot handed to FitOptions::on_progress after every training epoch.
struct FitProgress {
  std::size_t epoch = 0;         // 1-based, counts completed epochs
  std::size_t total_epochs = 0;
  float loss = 0.0f;             // model-specific scalar (0 when undefined)
};

/// Thrown by fit() when FitOptions::cancel flips to true mid-training.
class FitCancelled : public std::runtime_error {
 public:
  explicit FitCancelled(const std::string& model)
      : std::runtime_error(model + ": fit cancelled") {}
};

/// Optional observation/cancellation hooks for fit().
struct FitOptions {
  /// Called after each completed epoch (never concurrently).
  std::function<void(const FitProgress&)> on_progress;
  /// Cooperative cancellation token, polled between epochs; when it reads
  /// true, fit() throws FitCancelled and the model stays unfitted.
  const std::atomic<bool>* cancel = nullptr;

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// Thrown by sample_into() when SampleRequest::stop returns true before a
/// chunk; the output table is left untouched.
class SampleStopped : public std::runtime_error {
 public:
  explicit SampleStopped(const std::string& model)
      : std::runtime_error(model + ": sampling stopped") {}
};

/// How a fitted model absorbs a batch of newly collected rows (the
/// streaming collection-window workload, src/stream/). Warm refresh
/// continues training from the retained state — frozen encoder
/// vocabularies, current weights, saved optimizer moments — instead of
/// rebuilding from scratch, so it costs a fraction of a cold fit.
struct RefreshOptions {
  /// Gradient epochs over the delta (0 = auto: max(1, budget.epochs / 4)).
  /// Ignored by non-gradient models (SMOTE).
  std::size_t epochs = 0;
  /// Warm learning rate = budget.learning_rate × this scale, held flat (no
  /// cosine restart): refreshes are a continuation, not a new run.
  float learning_rate_scale = 0.5f;
  /// Progress/cancellation hooks, forwarded like fit().
  FitOptions fit;

  /// The epoch count a model with `budget_epochs` cold epochs should run.
  [[nodiscard]] std::size_t resolve_epochs(std::size_t budget_epochs) const {
    if (epochs > 0) return epochs;
    return budget_epochs >= 4 ? budget_epochs / 4 : std::size_t{1};
  }
};

/// A sampling job: how many rows, from which seed, in what chunk grain, on
/// how many threads. Determinism contract: the synthetic table depends on
/// (rows, seed, chunk_rows) only — `threads` is purely a scheduling choice.
struct SampleRequest {
  std::size_t rows = 0;
  std::uint64_t seed = 1234;
  /// Rows per chunk; each chunk samples from an independent derived stream.
  std::size_t chunk_rows = 4096;
  /// Worker count: 1 = serial in the calling thread, 0 = global pool size.
  std::size_t threads = 1;
  /// Called after each completed chunk with (rows_done, rows_total).
  /// Invoked under a lock — keep it cheap.
  std::function<void(std::size_t, std::size_t)> on_progress;
  /// Cooperative stop, the sampling counterpart of FitOptions::cancel.
  /// Polled before every chunk, possibly from several workers at once; once
  /// it returns true the remaining chunks are skipped and sample_into()
  /// throws SampleStopped. Empty = never stop.
  std::function<bool()> stop;
};

/// Stable derivation of chunk seeds: SplitMix64 over (seed, chunk index) so
/// streams are decorrelated and reproducible across runs and machines.
[[nodiscard]] std::uint64_t derive_chunk_seed(std::uint64_t seed,
                                              std::uint64_t chunk_index);

/// The common interface of every surrogate model (paper Sec. IV-A): learn
/// a mixed-type Table's joint distribution (fit / warm_fit), synthesize
/// schema-identical rows (sample_into — chunked, parallel, bitwise
/// thread-count independent), and persist/restore fitted state
/// (save/load). Concrete models register with GeneratorRegistry and are
/// addressed by string key.
class TabularGenerator {
 public:
  virtual ~TabularGenerator() = default;

  /// Learn from a training table. May be called once per instance.
  virtual void fit(const tabular::Table& train, const FitOptions& opts) = 0;
  void fit(const tabular::Table& train) { fit(train, FitOptions{}); }

  /// True once fit() (or load()) completed and the model can sample.
  [[nodiscard]] virtual bool fitted() const noexcept = 0;

  /// Incrementally absorb `delta` — rows that arrived since the last
  /// fit/warm_fit — into the fitted state (the streaming collection-window
  /// workload). The delta must share the training table's schema and
  /// vocabularies (true for any window cut from the same source table);
  /// encoder transforms and vocabularies stay frozen at cold-fit state.
  /// Gradient models resume from their retained optimizer moments at a
  /// reduced flat learning rate; SMOTE appends to its neighbour index.
  /// Throws std::logic_error when unfitted or when the training state was
  /// not retained (see warm_startable()). Like fit() and load(), it mutates
  /// the instance: it must not run concurrently with sampling on the same
  /// instance.
  virtual void warm_fit(const tabular::Table& delta,
                        const RefreshOptions& opts);
  void warm_fit(const tabular::Table& delta) { warm_fit(delta, {}); }

  /// True when this instance can warm_fit right now: it is fitted and its
  /// training-time state (optimizer moments, training RNG, auxiliary nets)
  /// is present. Models restored from archives saved with training state
  /// keep it; pre-v2 archives load as sample-only models.
  [[nodiscard]] virtual bool warm_startable() const noexcept { return false; }

  /// Registry key ("tabddpm") and human-facing name ("TabDDPM").
  [[nodiscard]] virtual std::string key() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Sampling primitive: n rows drawn from the stream seeded with `seed`.
  /// Each call is independent and deterministic for a given seed after fit.
  /// Const and re-entrant: it only reads fitted state and keeps its
  /// scratch buffers local, so any number of threads may call it on one
  /// instance at once.
  [[nodiscard]] virtual tabular::Table sample_chunk(
      std::size_t n, std::uint64_t seed) const = 0;

  /// Persistence of fitted state. save() requires a fitted model; load()
  /// leaves the instance fitted and ready to sample (training-only state is
  /// not preserved, so re-fitting a loaded model is rejected like any
  /// double fit). The payload is model-specific; prefer the free
  /// save_model()/load_model() helpers, which add a self-describing header.
  virtual void save(std::ostream& os) const = 0;
  virtual void load(std::istream& is) = 0;

  /// Chunked synthesis appended to `out` (which must be empty or share the
  /// training schema). Splits the request into chunk_rows-sized chunks with
  /// derived per-chunk seeds and runs them on util::ThreadPool when
  /// request.threads != 1, every chunk on this one instance; output is
  /// bitwise identical for every thread count. Throws SampleStopped, with
  /// `out` untouched, when request.stop trips.
  void sample_into(tabular::Table& out, const SampleRequest& request) const;

  /// Convenience wrapper over sample_into with default chunking, serial.
  [[nodiscard]] tabular::Table sample(std::size_t n,
                                      std::uint64_t seed) const;
};

/// Everything the registry knows about one surrogate family.
struct GeneratorInfo {
  std::string key;           // stable lookup key, e.g. "tabddpm"
  std::string display_name;  // e.g. "TabDDPM"
  std::string description;   // one-liner for CLI/API listings
  /// Build an untrained instance from a budget + seed.
  std::function<std::unique_ptr<TabularGenerator>(const TrainBudget&,
                                                  std::uint64_t seed)>
      factory;
};

/// String-keyed catalogue of surrogate models. Models self-register from
/// their own translation units at static-initialization time (see
/// RegisterGenerator), so linking a new model .cpp is all it takes to make
/// it reachable from the CLI, the experiment harness, and load_model().
class GeneratorRegistry {
 public:
  static GeneratorRegistry& instance();

  /// Throws std::invalid_argument on duplicate keys.
  void register_generator(GeneratorInfo info);

  [[nodiscard]] bool contains(const std::string& key) const;
  /// Sorted list of registered keys.
  [[nodiscard]] std::vector<std::string> keys() const;
  /// Metadata lookup; throws std::invalid_argument for unknown keys.
  [[nodiscard]] const GeneratorInfo& info(const std::string& key) const;

  /// Instantiate an untrained model; throws for unknown keys.
  [[nodiscard]] std::unique_ptr<TabularGenerator> create(
      const std::string& key, const TrainBudget& budget,
      std::uint64_t seed) const;

 private:
  GeneratorRegistry() = default;
  std::map<std::string, GeneratorInfo> infos_;
};

/// Static registrar: `static RegisterGenerator reg{{...}};` in a model's
/// .cpp self-registers it with GeneratorRegistry::instance().
struct RegisterGenerator {
  explicit RegisterGenerator(GeneratorInfo info) {
    GeneratorRegistry::instance().register_generator(std::move(info));
  }
};

/// Convenience: registry lookup + construction.
[[nodiscard]] std::unique_ptr<TabularGenerator> make_generator(
    const std::string& key, const TrainBudget& budget, std::uint64_t seed);

/// Self-describing fitted-model archive: header (magic, format version,
/// model key) + the model's own save() payload. load_model() reads the key
/// and dispatches through the registry, so callers need not know the model
/// type in advance.
void save_model(const TabularGenerator& model, std::ostream& os);
[[nodiscard]] std::unique_ptr<TabularGenerator> load_model(std::istream& is);

/// File-path convenience wrappers (binary mode, throws on I/O failure).
void save_model_file(const TabularGenerator& model, const std::string& path);
[[nodiscard]] std::unique_ptr<TabularGenerator> load_model_file(
    const std::string& path);

}  // namespace surro::models
