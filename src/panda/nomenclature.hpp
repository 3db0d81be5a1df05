#pragma once
// ATLAS dataset nomenclature (ref. [11] in the paper): dataset names are
// dot-separated — project.runNumber.stream.prodStep.dataType.version — and
// the paper splits DAOD names into the categorical features project,
// prodstep, datatype. This module generates and parses such names, so the
// pipeline exercises the same parse-the-name code path the paper describes.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace surro::panda {

struct DatasetName {
  std::string project;    // e.g. "mc23_13p6TeV", "data22_13p6TeV"
  std::string run_number; // e.g. "601229" or "00437548"
  std::string stream;     // e.g. "PhPy8EG_A14NNPDF23LO" or "physics_Main"
  std::string prodstep;   // e.g. "deriv", "merge", "recon", "simul"
  std::string datatype;   // e.g. "DAOD_PHYS", "AOD", "HITS"
  std::string version;    // e.g. "e8514_s4159_r14799_p5855"

  [[nodiscard]] std::string to_string() const;
  /// True when datatype starts with "DAOD" (the paper's Fig. 3(b) filter).
  [[nodiscard]] bool is_daod() const noexcept;
};

/// Parse "project.run.stream.prodstep.datatype.version"; nullopt when the
/// name does not have exactly six dot-separated sections or has empty parts.
[[nodiscard]] std::optional<DatasetName> parse_dataset_name(
    std::string_view name);

/// The vocabulary of the nomenclature generator, with realistic relative
/// weights. All lists are fixed (deterministic categorical universes).
class Nomenclature {
 public:
  Nomenclature();

  /// Draw a full dataset identity. `daod_bias` in [0,1] is the probability
  /// that the drawn datatype is a DAOD flavour (user analysis is dominated
  /// by DAOD inputs; centralized formats make up the rest).
  [[nodiscard]] DatasetName sample(util::Rng& rng, double daod_bias) const;

  [[nodiscard]] const std::vector<std::string>& daod_types() const noexcept {
    return daod_types_;
  }

  /// Relative per-datatype input-file size scale (DAOD_PHYSLITE is much
  /// smaller than DAOD_PHYS, etc.); 1.0 for unknown types.
  [[nodiscard]] double datatype_size_scale(std::string_view datatype) const;
  /// Relative per-datatype CPU cost scale (drives workload multi-modality).
  [[nodiscard]] double datatype_cpu_scale(std::string_view datatype) const;

 private:
  std::vector<std::string> projects_;
  std::vector<double> project_weights_;
  std::vector<std::string> prodsteps_;
  std::vector<double> prodstep_weights_;
  std::vector<std::string> daod_types_;
  std::vector<double> daod_weights_;
  std::vector<std::string> non_daod_types_;
  std::vector<double> non_daod_weights_;
  util::AliasTable project_alias_;
  util::AliasTable prodstep_alias_;
  util::AliasTable daod_alias_;
  util::AliasTable non_daod_alias_;
};

}  // namespace surro::panda
