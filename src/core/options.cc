#include "core/options.h"

#include <climits>
#include <cmath>

namespace silkmoth {

const char* RelatednessName(Relatedness metric) {
  switch (metric) {
    case Relatedness::kSimilarity:
      return "SET-SIMILARITY";
    case Relatedness::kContainment:
      return "SET-CONTAINMENT";
  }
  return "?";
}

const char* SignatureSchemeName(SignatureSchemeKind kind) {
  switch (kind) {
    case SignatureSchemeKind::kWeighted:
      return "WEIGHTED";
    case SignatureSchemeKind::kCombUnweighted:
      return "COMBUNWEIGHTED";
    case SignatureSchemeKind::kSkyline:
      return "SKYLINE";
    case SignatureSchemeKind::kDichotomy:
      return "DICHOTOMY";
  }
  return "?";
}

int MaxQForAlpha(double alpha, int fallback) {
  if (alpha <= kFloatSlack) return fallback;
  const double limit = alpha / (1.0 - alpha);
  int q = static_cast<int>(std::ceil(limit - kFloatSlack)) - 1;
  if (std::abs(limit - std::round(limit)) < 1e-9) {
    // Integral limit: q must be strictly below it.
    q = static_cast<int>(std::round(limit)) - 1;
  }
  return q < 1 ? 1 : q;
}

int MaxQForDelta(double delta) {
  if (delta <= 0.0 || delta >= 1.0) return delta >= 1.0 ? INT_MAX : 0;
  const double limit = delta / (1.0 - delta);
  int q = static_cast<int>(std::ceil(limit - kFloatSlack)) - 1;
  if (std::abs(limit - std::round(limit)) < 1e-9) {
    q = static_cast<int>(std::round(limit)) - 1;
  }
  return q < 0 ? 0 : q;
}

int Options::EffectiveQ() const {
  if (!IsEditSimilarity(phi)) return 0;
  if (q > 0) return q;
  return MaxQForAlpha(alpha, /*fallback=*/2);
}

std::string Options::Validate() const {
  // Written as negated in-range tests so NaN (which fails every
  // comparison) is rejected too.
  if (!(delta > 0.0 && delta <= 1.0)) {
    return "delta must be in (0, 1]; got " + std::to_string(delta);
  }
  if (!(alpha >= 0.0 && alpha < 1.0)) {
    return "alpha must be in [0, 1); got " + std::to_string(alpha);
  }
  if (IsEditSimilarity(phi)) {
    const int eff_q = EffectiveQ();
    if (eff_q < 1) return "q must be >= 1 for edit similarity";
    if (alpha > kFloatSlack) {
      const double limit = alpha / (1.0 - alpha);
      if (static_cast<double>(eff_q) >= limit - kFloatSlack &&
          std::abs(static_cast<double>(eff_q) - limit) > kFloatSlack) {
        // q > α/(1-α): sim-thresh protection would be unsound.
        return "q must satisfy q < alpha/(1-alpha) (footnote 11)";
      }
      if (std::abs(static_cast<double>(eff_q) - limit) <= kFloatSlack) {
        return "q must be strictly below alpha/(1-alpha)";
      }
    }
  }
  if (num_threads < 1) return "num_threads must be >= 1";
  if (num_shards < 1) return "num_shards must be >= 1";
  return "";
}

}  // namespace silkmoth
