#include "core/pipeline.hpp"

#include <stdexcept>

namespace surro::core {

SurrogatePipeline::SurrogatePipeline(PipelineConfig cfg)
    : cfg_(std::move(cfg)) {}

void SurrogatePipeline::fit(const models::FitOptions& opts) {
  if (fitted_) throw std::logic_error("pipeline: fit called twice");
  eval::PreparedData data = eval::prepare_data(cfg_.experiment);
  funnel_ = data.funnel;
  train_ = std::move(data.train);
  test_ = std::move(data.test);

  model_ = models::make_generator(cfg_.model, cfg_.experiment.budget,
                                  cfg_.experiment.seed);
  model_->fit(train_, opts);
  fitted_ = true;
  has_data_ = true;
}

void SurrogatePipeline::refresh(const tabular::Table& delta,
                                const models::RefreshOptions& opts) {
  if (!fitted_) throw std::logic_error("pipeline: refresh before fit");
  if (!model_->warm_startable()) {
    throw std::logic_error("pipeline: model has no retained training state");
  }
  model_->warm_fit(delta, opts);
  if (has_data_ && delta.num_rows() > 0) {
    train_.append_table(delta);
    train_mlef_.reset();  // the training distribution moved
  }
}

tabular::Table SurrogatePipeline::sample(std::size_t rows,
                                         std::uint64_t seed) {
  models::SampleRequest request;
  request.rows = rows;
  request.seed = seed;
  request.chunk_rows = cfg_.experiment.sample_chunk_rows;
  request.threads = cfg_.experiment.sample_threads;
  return sample(request);
}

tabular::Table SurrogatePipeline::sample(
    const models::SampleRequest& request) {
  if (!fitted_) throw std::logic_error("pipeline: sample before fit");
  tabular::Table out;
  model_->sample_into(out, request);
  return out;
}

metrics::ModelScore SurrogatePipeline::evaluate(
    const tabular::Table& synthetic) {
  if (!has_data_) throw std::logic_error("pipeline: evaluate before fit");
  if (!train_mlef_.has_value()) {
    train_mlef_ = metrics::mlef_mse(train_, test_, cfg_.experiment.mlef);
  }
  return eval::score_model(model_->name(), synthetic, train_, test_,
                           *train_mlef_, cfg_.experiment);
}

void SurrogatePipeline::save_model(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("pipeline: save before fit");
  models::save_model(*model_, os);
}

void SurrogatePipeline::load_model(std::istream& is) {
  model_ = models::load_model(is);
  fitted_ = true;
}

const tabular::Table& SurrogatePipeline::train_table() const {
  if (!has_data_) throw std::logic_error("pipeline: not fitted");
  return train_;
}
models::TabularGenerator& SurrogatePipeline::model() {
  if (!fitted_) throw std::logic_error("pipeline: not fitted");
  return *model_;
}

}  // namespace surro::core
