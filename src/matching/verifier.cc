#include "matching/verifier.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "matching/hungarian.h"
#include "matching/local_max.h"

namespace silkmoth {

MaxMatchingVerifier::MaxMatchingVerifier(const ElementSimilarity* sim,
                                         double alpha, bool use_reduction)
    : sim_(sim),
      alpha_(alpha),
      reduction_active_(use_reduction && alpha <= kFloatSlack &&
                        sim->HasMetricDual()) {}

size_t MaxMatchingVerifier::SelectElements(
    const SetRecord& r, const SetRecord& s,
    std::vector<const Element*>* r_elems,
    std::vector<const Element*>* s_elems) const {
  r_elems->clear();
  s_elems->clear();
  r_elems->reserve(r.elements.size());
  s_elems->reserve(s.elements.size());

  if (!reduction_active_) {
    for (const Element& e : r.elements) r_elems->push_back(&e);
    for (const Element& e : s.elements) s_elems->push_back(&e);
    return 0;
  }

  // Pair identical elements greedily: each identical pair (φ = 1) is in
  // some maximum matching when 1-φ obeys the triangle inequality, and the
  // argument applies inductively to the reduced instance.
  size_t reduced = 0;
  std::unordered_map<std::string, int> s_counts;
  s_counts.reserve(s.elements.size() * 2);
  for (const Element& e : s.elements) {
    s_counts[IdentityKey(e, sim_->kind())] += 1;
  }
  std::unordered_map<std::string, int> consumed;  // R-side pairings done.
  for (const Element& e : r.elements) {
    const std::string key = IdentityKey(e, sim_->kind());
    auto it = s_counts.find(key);
    int available = it == s_counts.end() ? 0 : it->second;
    int& used = consumed[key];
    if (used < available) {
      ++used;
      ++reduced;
    } else {
      r_elems->push_back(&e);
    }
  }
  // Remove the same multiset of elements from S.
  std::unordered_map<std::string, int> to_skip = consumed;
  for (const Element& e : s.elements) {
    const std::string key = IdentityKey(e, sim_->kind());
    auto it = to_skip.find(key);
    if (it != to_skip.end() && it->second > 0) {
      --it->second;
    } else {
      s_elems->push_back(&e);
    }
  }
  return reduced;
}

WeightMatrix MaxMatchingVerifier::FillMatrix(
    const std::vector<const Element*>& r_elems,
    const std::vector<const Element*>& s_elems, std::vector<double>* row_max,
    std::vector<double>* col_max, MatchingStats* stats) const {
  const size_t rows = r_elems.size();
  const size_t cols = s_elems.size();
  WeightMatrix w(rows, cols);
  row_max->assign(rows, 0.0);
  col_max->assign(cols, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const double v = sim_->ScoreThresholded(*r_elems[i], *s_elems[j], alpha_);
      w.At(i, j) = v;
      (*row_max)[i] = std::max((*row_max)[i], v);
      (*col_max)[j] = std::max((*col_max)[j], v);
    }
  }
  if (stats != nullptr) {
    stats->matrix_rows = rows;
    stats->matrix_cols = cols;
    stats->similarity_calls += rows * cols;
  }
  return w;
}

double MaxMatchingVerifier::Score(const SetRecord& r, const SetRecord& s,
                                  MatchingStats* stats) const {
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  const size_t reduced = SelectElements(r, s, &r_elems, &s_elems);
  if (stats != nullptr) stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);
  if (r_elems.empty() || s_elems.empty()) return base;
  std::vector<double> row_max;
  std::vector<double> col_max;
  const WeightMatrix w = FillMatrix(r_elems, s_elems, &row_max, &col_max,
                                    stats);
  return base + MaxWeightMatchingScore(w);
}

VerifyDecision MaxMatchingVerifier::ScoreDecision(const SetRecord& r,
                                                  const SetRecord& s,
                                                  double theta,
                                                  MatchingStats* stats,
                                                  double margin,
                                                  bool need_exact_score,
                                                  double floor_theta) const {
  // A margin below kFloatSlack would let the reject test (`upper < theta -
  // margin`) pass inputs the exact path accepts (`score >= theta -
  // kFloatSlack`): clamping keeps every bound-settled decision consistent
  // with the exact decision regardless of the caller's margin.
  margin = std::max(margin, kFloatSlack);
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  const size_t reduced = SelectElements(r, s, &r_elems, &s_elems);
  if (stats != nullptr) stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);

  VerifyDecision d;
  if (r_elems.empty() || s_elems.empty()) {
    d.lower = d.upper = d.score = base;
    d.exact = true;
    d.related = d.score >= theta - kFloatSlack;
    if (stats != nullptr) {
      if (d.related) ++stats->bound_accepts;
      else ++stats->bound_rejects;
    }
    return d;
  }

  const size_t rows = r_elems.size();
  const size_t cols = s_elems.size();
  std::vector<double> row_max;
  std::vector<double> col_max;
  const WeightMatrix w = FillMatrix(r_elems, s_elems, &row_max, &col_max,
                                    stats);

  // Upper bound: every matched pair is at most its row maximum and its
  // column maximum, and each row/column hosts at most one pair.
  double row_sum = 0.0;
  for (double v : row_max) row_sum += v;
  double col_sum = 0.0;
  for (double v : col_max) col_sum += v;
  d.upper = base + std::min(row_sum, col_sum);
  // The reduced pairs alone form a feasible matching, so `base` is already
  // a valid lower bound; the greedy bound below can only raise it.
  d.lower = base;

  if (d.upper < theta - margin) {
    // Even a perfect row-wise assignment cannot reach theta. Rejects are
    // the dominant fast-path outcome, so this test runs before any edge
    // materialization or sorting.
    d.related = false;
    d.score = d.upper;
    if (stats != nullptr) ++stats->bound_rejects;
    return d;
  }

  if (floor_theta > theta && d.upper < floor_theta - margin) {
    // θ-related or not, this candidate cannot reach the caller's floating
    // floor (top-k's current k-th-best score), so no bound or solve is
    // worth running on it.
    d.related = false;
    d.score = d.upper;
    if (stats != nullptr) ++stats->floor_rejects;
    return d;
  }

  // Lower bound: a greedy matching — rows visited in descending row-maximum
  // order, each taking its heaviest still-free column — is a feasible
  // matching, hence a lower bound on the optimum (Birn et al. show greedy
  // matchings are near-optimal in practice). Row ordering costs O(n log n)
  // and the scan O(nm), no heavier than the matrix fill above; no per-edge
  // materialization or sort.
  std::vector<uint32_t> order(rows);
  for (size_t i = 0; i < rows; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (row_max[a] != row_max[b]) return row_max[a] > row_max[b];
    return a < b;
  });
  std::vector<uint8_t> col_used(cols, 0);
  double greedy = 0.0;
  for (uint32_t i : order) {
    if (row_max[i] <= 0.0) break;  // Remaining rows are all-zero.
    double best = 0.0;
    size_t best_j = cols;
    for (size_t j = 0; j < cols; ++j) {
      if (!col_used[j] && w.At(i, j) > best) {
        best = w.At(i, j);
        best_j = j;
      }
    }
    if (best_j < cols) {
      col_used[best_j] = 1;
      greedy += best;
    }
  }
  d.lower = base + greedy;

  if (d.lower >= theta + margin) {
    // The greedy matching alone already certifies relatedness. The greedy
    // sum's summation order differs from the exact solver's, so it is never
    // reported as exact; when the caller needs the reportable score the
    // solver runs on the matrix already in hand (reporting cost only — the
    // decision was settled by the bound).
    d.related = true;
    if (need_exact_score) {
      d.score = base + MaxWeightMatchingScore(w);
      d.exact = true;
      if (stats != nullptr) ++stats->reporting_solves;
    } else {
      d.score = d.lower;
    }
    if (stats != nullptr) ++stats->bound_accepts;
    return d;
  }

  // Tier 2: the local-max matching (Birn et al.) is near-linear on this
  // already-built matrix and incomparable with the row-greedy bound, so the
  // lower bound becomes the max of the two. Its 1/2-of-optimum guarantee
  // also makes bound-only reported scores (`--approx-scores`) at least half
  // the exact score whenever this tier settles the accept.
  d.lower = base + std::max(greedy, LocalMaxMatchingScore(w));
  if (d.lower >= theta + margin) {
    d.related = true;
    if (need_exact_score) {
      d.score = base + MaxWeightMatchingScore(w);
      d.exact = true;
      if (stats != nullptr) ++stats->reporting_solves;
    } else {
      d.score = d.lower;
    }
    if (stats != nullptr) ++stats->tier2_accepts;
    return d;
  }

  // Ambiguous band: only here does the exact solver run.
  d.score = base + MaxWeightMatchingScore(w);
  d.exact = true;
  d.related = d.score >= theta - kFloatSlack;
  if (stats != nullptr) ++stats->exact_solves;
  return d;
}

}  // namespace silkmoth
