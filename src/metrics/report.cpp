#include "metrics/report.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace surro::metrics {

std::string render_table1(const std::vector<ModelScore>& rows) {
  std::string out;
  char buf[256];
  out += "PERFORMANCE COMPARISONS ON SURROGATE MODELS\n";
  std::snprintf(buf, sizeof(buf), "%-10s %10s %10s %12s %10s %12s\n",
                "Model", "WD v", "JSD v", "diff-CORR v", "DCR ^",
                "diff-MLEF v");
  out += buf;
  out += std::string(68, '-');
  out += '\n';
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-10s %10.3f %10.3f %12.3f %10.3f %12.3f\n",
                  r.model.c_str(), r.wd, r.jsd, r.diff_corr, r.dcr,
                  r.diff_mlef);
    out += buf;
  }
  return out;
}

std::string scores_to_csv(const std::vector<ModelScore>& rows) {
  std::string out = "model,wd,jsd,diff_corr,dcr,diff_mlef\n";
  char buf[256];
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf), "%s,%.6f,%.6f,%.6f,%.6f,%.6f\n",
                  r.model.c_str(), r.wd, r.jsd, r.diff_corr, r.dcr,
                  r.diff_mlef);
    out += buf;
  }
  return out;
}

void append_score_json(util::JsonWriter& w, const ModelScore& score) {
  w.begin_object();
  w.kv("model", score.model);
  w.kv("wd", score.wd);
  w.kv("jsd", score.jsd);
  w.kv("diff_corr", score.diff_corr);
  w.kv("dcr", score.dcr);
  w.kv("diff_mlef", score.diff_mlef);
  w.end_object();
}

std::string scores_to_json(const std::vector<ModelScore>& rows) {
  util::JsonWriter w;
  w.begin_array();
  for (const auto& r : rows) append_score_json(w, r);
  w.end_array();
  return w.str();
}

namespace {
const ModelScore* find(const std::vector<ModelScore>& rows,
                       const std::string& name) {
  for (const auto& r : rows) {
    if (r.model == name) return &r;
  }
  return nullptr;
}
}  // namespace

std::vector<std::string> check_paper_shape(
    const std::vector<ModelScore>& rows) {
  std::vector<std::string> lines;
  const ModelScore* smote = find(rows, "SMOTE");
  const ModelScore* ddpm = find(rows, "TabDDPM");
  const ModelScore* tvae = find(rows, "TVAE");
  const ModelScore* gan = find(rows, "CTABGAN+");
  if (smote == nullptr || ddpm == nullptr || tvae == nullptr ||
      gan == nullptr) {
    throw std::invalid_argument("check_paper_shape: missing model rows");
  }
  const auto check = [&lines](bool ok, const std::string& what) {
    lines.push_back(std::string(ok ? "[PASS] " : "[FAIL] ") + what);
    return ok;
  };
  // The scale-robust core of Table I (these hold at paper scale and at the
  // reduced profiles this repo runs; TVAE's collapse only emerges at full
  // scale). benchmark/table1_reference.tsv records the scores of the
  // benchmark's medium-profile pass, and benchmark/README.md describes it:
  // 1. SMOTE tracks the training distribution best on every fidelity
  //    metric (it interpolates real records).
  check(smote->wd <= std::min({ddpm->wd, tvae->wd, gan->wd}) + 5e-3,
        "SMOTE best (or tied) on WD");
  check(smote->jsd <=
            std::min({ddpm->jsd, tvae->jsd, gan->jsd}) + 5e-3,
        "SMOTE best (or tied) on JSD");
  check(smote->diff_corr <= std::min({ddpm->diff_corr, tvae->diff_corr,
                                      gan->diff_corr}) +
                                5e-3,
        "SMOTE best (or tied) on diff-CORR");
  // 2. ...but it nearly memorizes: lowest DCR by a clear margin.
  check(smote->dcr <= std::min({ddpm->dcr, tvae->dcr, gan->dcr}),
        "SMOTE DCR is the minimum across all models (privacy risk)");
  check(ddpm->dcr >= 3.0 * smote->dcr,
        "TabDDPM keeps DCR well above SMOTE (>= 3x)");
  // 3. TabDDPM combines fidelity with privacy: it beats at least one of
  //    the latent-variable models on every fidelity metric while keeping
  //    its DCR advantage over SMOTE.
  check(ddpm->wd <= std::max(tvae->wd, gan->wd) + 5e-3,
        "TabDDPM fidelity (WD) competitive with TVAE/CTABGAN+");
  check(ddpm->diff_corr <= std::max(tvae->diff_corr, gan->diff_corr) + 5e-3,
        "TabDDPM correlation structure competitive with TVAE/CTABGAN+");
  check(ddpm->diff_mlef <= std::max(tvae->diff_mlef, gan->diff_mlef),
        "TabDDPM downstream utility competitive with TVAE/CTABGAN+");
  // 4. The GAN is the weakest learner of the joint distribution.
  check(gan->diff_mlef >= std::max({smote->diff_mlef, ddpm->diff_mlef}),
        "CTABGAN+ worst (or tied) on diff-MLEF among generative models");
  return lines;
}

}  // namespace surro::metrics
