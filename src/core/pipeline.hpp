#pragma once
// SurrogatePipeline: the three-line user experience —
//
//   surro::core::SurrogatePipeline pipe(cfg);
//   pipe.fit();                               // simulate -> filter -> train
//   auto synth = pipe.sample(100000);         // deterministic synthesis
//   auto score = pipe.evaluate(synth);        // the five Table I metrics
//
// Wraps the eval harness for users who want one model (default TabDDPM, the
// paper's recommendation) rather than the whole comparison. Models are
// addressed by registry key and a fitted model can be persisted with
// save_model()/load_model() so one training run serves many synthesis calls.
// sample() calls the model's sample_into directly, so output bytes depend
// only on (model, rows, seed, chunk_rows) — the same bytes a
// serve::SampleService job with those values returns.

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "eval/experiment.hpp"
#include "models/generator.hpp"

namespace surro::core {

struct PipelineConfig {
  eval::ExperimentConfig experiment = eval::quick_experiment_config();
  /// Registry key of the surrogate (see models::GeneratorRegistry::keys()).
  std::string model = "tabddpm";
};

/// The one-model façade over the experiment harness: simulate → filter →
/// train → sample → score in three lines, with persistence and warm
/// refresh for serving scenarios. See the header comment for the canonical
/// usage snippet.
class SurrogatePipeline {
 public:
  explicit SurrogatePipeline(PipelineConfig cfg = {});

  /// Simulate the PanDA window, filter (Fig. 3(b)), split 80/20, and train
  /// the selected surrogate on the training partition. `opts` forwards
  /// progress/cancellation hooks to the model.
  void fit(const models::FitOptions& opts = {});
  [[nodiscard]] bool fitted() const noexcept { return fitted_; }

  /// Warm-refresh the fitted surrogate on newly collected rows (the
  /// streaming workload, src/stream/): the model resumes from its retained
  /// weights and optimizer state instead of refitting. The delta is also
  /// appended to this pipeline's training table so later evaluate() calls
  /// score against everything the model has absorbed. Requires a fitted,
  /// warm-startable model (see models::TabularGenerator::warm_startable).
  void refresh(const tabular::Table& delta,
               const models::RefreshOptions& opts = {});

  /// Synthetic job records with the training schema and vocabularies.
  [[nodiscard]] tabular::Table sample(std::size_t rows,
                                      std::uint64_t seed = 1234);
  /// Full-control variant: chunked, optionally parallel synthesis (the
  /// model's sample_into with this request).
  [[nodiscard]] tabular::Table sample(const models::SampleRequest& request);

  /// Score a synthetic table on all five metrics (against this pipeline's
  /// train/test partitions).
  [[nodiscard]] metrics::ModelScore evaluate(const tabular::Table& synthetic);

  /// Persist / restore the fitted surrogate (models::save_model archive).
  /// Loading replaces the current model; the pipeline counts as fitted for
  /// sampling afterwards, but train/test tables require a prior fit().
  void save_model(std::ostream& os) const;
  void load_model(std::istream& is);

  /// The training partition of the simulated window's 80/20 split
  /// (requires a prior fit()).
  [[nodiscard]] const tabular::Table& train_table() const;
  /// Per-stage counts of the Fig. 3(b) filter funnel.
  [[nodiscard]] const panda::FilterFunnel& funnel() const noexcept {
    return funnel_;
  }
  /// The underlying surrogate (throws before fit()/load_model()).
  [[nodiscard]] models::TabularGenerator& model();

 private:
  PipelineConfig cfg_;
  bool fitted_ = false;      // a model is ready to sample
  bool has_data_ = false;    // fit() ran here (train/test available)
  panda::FilterFunnel funnel_;
  tabular::Table train_;
  tabular::Table test_;
  std::optional<double> train_mlef_;  // computed lazily for evaluate()
  std::unique_ptr<models::TabularGenerator> model_;
};

}  // namespace surro::core
