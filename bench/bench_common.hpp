#pragma once
// Shared CLI handling for the experiment harnesses. Every table/figure
// binary accepts:
//   --quick   tiny profile (seconds; CI smoke)
//   --paper   large profile (closer to paper scale; minutes)
//   (default) medium profile balancing fidelity and wall-clock
//   --out DIR write CSV artifacts into DIR (default: current directory)
//   --json-out FILE
//             also write a machine-readable JSON result artifact (scores,
//             wall-clock, rows/sec) for CI to archive and diff

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "eval/experiment.hpp"

namespace surro::bench {

enum class Profile { kQuick, kMedium, kPaper };

struct HarnessOptions {
  Profile profile = Profile::kMedium;
  std::string out_dir = ".";
  std::string json_out;  // empty = no JSON artifact
};

inline const char* profile_name(Profile profile) {
  switch (profile) {
    case Profile::kQuick: return "quick";
    case Profile::kPaper: return "paper";
    default: return "medium";
  }
}

inline HarnessOptions parse_options(int argc, char** argv,
                                    Profile default_profile = Profile::kMedium) {
  HarnessOptions opts;
  opts.profile = default_profile;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts.profile = Profile::kQuick;
    } else if (std::strcmp(argv[i], "--medium") == 0) {
      opts.profile = Profile::kMedium;
    } else if (std::strcmp(argv[i], "--paper") == 0) {
      opts.profile = Profile::kPaper;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      opts.json_out = argv[++i];
    }
  }
  return opts;
}

/// Experiment configuration per profile. The medium profile is the default,
/// and the one whose Table I scores benchmark/table1_reference.tsv records
/// (see benchmark/README.md).
inline eval::ExperimentConfig experiment_config(Profile profile) {
  if (profile == Profile::kQuick) {
    auto cfg = eval::quick_experiment_config();
    cfg.verbose = true;
    return cfg;
  }
  eval::ExperimentConfig cfg;
  cfg.verbose = true;
  if (profile == Profile::kMedium) {
    cfg.data.model.days = 30.0;
    cfg.data.model.base_jobs_per_day = 240.0;
    cfg.data.model.campaigns_per_day = 1.2;
    cfg.data.extra_tier2_sites = 64;
    cfg.budget.epochs = 30;
    cfg.synth_rows = 4000;
    cfg.dcr.max_train_rows = 6000;
    cfg.dcr.max_synth_rows = 2000;
    cfg.mlef.boosting.iterations = 60;
    cfg.mlef.boosting.tree.max_depth = 8;
  } else {  // kPaper
    cfg.data.model.days = 150.0;
    cfg.data.model.base_jobs_per_day = 400.0;
    cfg.data.model.campaigns_per_day = 1.5;
    cfg.data.extra_tier2_sites = 96;
    cfg.budget.epochs = 60;
    cfg.synth_rows = 10000;
    cfg.dcr.max_train_rows = 12000;
    cfg.dcr.max_synth_rows = 4000;
    cfg.mlef.boosting.iterations = 120;
    cfg.mlef.boosting.tree.max_depth = 10;
  }
  return cfg;
}

inline void write_text_file(const std::string& path,
                            const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << content;
  std::printf("wrote %s\n", path.c_str());
}

/// When --json-out was given, wrap the experiment's JSON in a harness
/// envelope (harness name + profile) and write it.
inline void maybe_write_json(const HarnessOptions& opts,
                             const std::string& harness,
                             const eval::ExperimentConfig& cfg,
                             const eval::ExperimentResult& result,
                             double wall_seconds) {
  if (opts.json_out.empty()) return;
  util::JsonWriter w;
  w.begin_object();
  w.kv("harness", harness);
  w.kv("profile", profile_name(opts.profile));
  w.key("result").raw(eval::experiment_to_json(cfg, result, wall_seconds));
  w.end_object();
  write_text_file(opts.json_out, w.str() + "\n");
}

}  // namespace surro::bench
