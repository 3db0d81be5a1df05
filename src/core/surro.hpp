#pragma once
// Umbrella header: the full public API of the surro library.
//
//   surro::panda    — synthetic PanDA workload simulator + Fig. 3(b) funnel
//   surro::tabular  — mixed-type columnar tables
//   surro::preprocess — quantile transform, one-hot, mixed encoder
//   surro::models   — Surrogate Model API v2: the string-keyed
//                     GeneratorRegistry (TVAE, CTABGAN+, SMOTE, TabDDPM
//                     self-register; new models plug in without core
//                     edits), fit() with progress/cancellation, chunked
//                     parallel sample_into() whose output is bitwise
//                     independent of the thread count, and fitted-model
//                     persistence via save_model()/load_model()
//   surro::metrics  — WD, JSD, diff-CORR, DCR, MLEF
//   surro::eval     — end-to-end experiment + figure builders
//   surro::sched    — event-driven multi-site scheduler simulator
//   surro::serve    — the serving layer: ModelHost (string-keyed LRU cache
//                     over fitted-model archives), SampleService (async
//                     SampleJobs, one pool task each, behind a bounded
//                     admission queue with block/reject/shed policies,
//                     per-job deadlines, and cooperative cancellation),
//                     request-script replay, and the overload soak harness
//   surro::core     — SurrogatePipeline high-level façade (this header's
//                     namespace) and version info

#include "core/pipeline.hpp"
#include "core/version.hpp"
#include "eval/experiment.hpp"
#include "eval/figures.hpp"
#include "metrics/correlation.hpp"
#include "metrics/dcr.hpp"
#include "metrics/jsd.hpp"
#include "metrics/mlef.hpp"
#include "metrics/report.hpp"
#include "metrics/wasserstein.hpp"
#include "models/ctabgan.hpp"
#include "models/generator.hpp"
#include "models/smote.hpp"
#include "models/tabddpm.hpp"
#include "models/tvae.hpp"
#include "panda/filters.hpp"
#include "panda/generator.hpp"
#include "preprocess/mixed_encoder.hpp"
#include "sched/policies.hpp"
#include "sched/simulator.hpp"
#include "serve/model_host.hpp"
#include "serve/replay.hpp"
#include "serve/sample_service.hpp"
#include "serve/shard_pool.hpp"
#include "serve/shard_router.hpp"
#include "serve/soak.hpp"
#include "tabular/split.hpp"
#include "tabular/stats.hpp"
#include "tabular/table_io.hpp"
