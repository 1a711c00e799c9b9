#include "replica.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "core/relatedness.h"
#include "filter/check_filter.h"
#include "filter/nn_filter.h"
#include "matching/hungarian.h"
#include "matching/local_max.h"
#include "matching/verifier.h"
#include "sig/scheme.h"

namespace perfbench {

using silkmoth::Candidate;
using silkmoth::SearchMatch;

void LayerCounters::Merge(const LayerCounters& o) {
  funnel.Merge(o.funnel);
  postings_scanned += o.postings_scanned;
  size_filtered += o.size_filtered;
  check_filtered += o.check_filtered;
  check_phi += o.check_phi;
  nn_searches += o.nn_searches;
  nn_phi += o.nn_phi;
  early_terminations += o.early_terminations;
  matching_phi += o.matching_phi;
  accepted += o.accepted;
}

void MatchingProbe::Merge(const MatchingProbe& o) {
  pairs += o.pairs;
  fill_s += o.fill_s;
  local_max_s += o.local_max_s;
  hungarian_s += o.hungarian_s;
  sink += o.sink;
}

namespace {

/// Top-k preference order, as RunSearchPass defines it.
bool IsBetterMatch(const SearchMatch& a, const SearchMatch& b) {
  if (a.relatedness != b.relatedness) return a.relatedness > b.relatedness;
  return a.set_id < b.set_id;
}

/// The verifier's reduction step (identical elements paired first when
/// α = 0 and 1-φ is a metric), rebuilt from public pieces so the probe
/// fills the same matrix ScoreDecision fills.
void ReducedElements(const silkmoth::SetRecord& r,
                     const silkmoth::SetRecord& s,
                     const silkmoth::ElementSimilarity* sim,
                     const silkmoth::Options& options,
                     std::vector<const silkmoth::Element*>* r_elems,
                     std::vector<const silkmoth::Element*>* s_elems) {
  const bool reduce = options.reduction &&
                      options.alpha <= silkmoth::kFloatSlack &&
                      sim->HasMetricDual();
  if (!reduce) {
    for (const auto& e : r.elements) r_elems->push_back(&e);
    for (const auto& e : s.elements) s_elems->push_back(&e);
    return;
  }
  std::unordered_map<std::string, int> s_counts;
  for (const auto& e : s.elements) {
    s_counts[silkmoth::IdentityKey(e, sim->kind())] += 1;
  }
  std::unordered_map<std::string, int> consumed;
  for (const auto& e : r.elements) {
    const std::string key = silkmoth::IdentityKey(e, sim->kind());
    auto it = s_counts.find(key);
    const int available = it == s_counts.end() ? 0 : it->second;
    int& used = consumed[key];
    if (used < available) {
      ++used;
    } else {
      r_elems->push_back(&e);
    }
  }
  for (const auto& e : s.elements) {
    auto it = consumed.find(silkmoth::IdentityKey(e, sim->kind()));
    if (it != consumed.end() && it->second > 0) {
      --it->second;
    } else {
      s_elems->push_back(&e);
    }
  }
}

void ProbeMatching(const silkmoth::SetRecord& r,
                   const silkmoth::SetRecord& s,
                   const silkmoth::ElementSimilarity* sim,
                   const silkmoth::Options& options, MatchingProbe* probe) {
  std::vector<const silkmoth::Element*> re;
  std::vector<const silkmoth::Element*> se;
  ReducedElements(r, s, sim, options, &re, &se);
  if (re.empty() || se.empty()) return;
  const auto t0 = Clock::now();
  silkmoth::WeightMatrix w(re.size(), se.size());
  for (size_t i = 0; i < re.size(); ++i) {
    for (size_t j = 0; j < se.size(); ++j) {
      w.At(i, j) = sim->ScoreThresholded(*re[i], *se[j], options.alpha);
    }
  }
  const auto t1 = Clock::now();
  const double lm = silkmoth::LocalMaxMatchingScore(w);
  const auto t2 = Clock::now();
  const double hu = silkmoth::MaxWeightMatchingScore(w);
  const auto t3 = Clock::now();
  probe->fill_s += Seconds(t0, t1);
  probe->local_max_s += Seconds(t1, t2);
  probe->hungarian_s += Seconds(t2, t3);
  probe->sink += lm + hu;
  ++probe->pairs;
}

/// Opens a span when tracing; returns -1 otherwise.
int32_t OpenSpan(SpanBuffer* spans, Layer layer, uint32_t id, int32_t parent) {
  return spans != nullptr ? spans->Open(layer, id, parent) : -1;
}

void CloseSpan(SpanBuffer* spans, int32_t idx) {
  if (spans != nullptr) spans->Close(idx);
}

}  // namespace

std::vector<SearchMatch> ReplicaSearchPass(
    const silkmoth::SetRecord& ref, const silkmoth::Collection& data,
    const silkmoth::InvertedIndex& index, const silkmoth::Options& options,
    uint32_t exclude_set, silkmoth::SetIdRange scan_range, size_t top_k,
    silkmoth::QueryScratch* scratch, SpanBuffer* spans, uint32_t trace_id,
    int32_t parent_span, LayerCounters* c, MatchingProbe* probe) {
  std::vector<SearchMatch> results;
  if (ref.Empty()) return results;
  const silkmoth::ElementSimilarity* sim =
      silkmoth::GetSimilarity(options.phi);
  silkmoth::SearchStats& st = c->funnel;
  const int32_t pass = OpenSpan(spans, Layer::kCorePass, trace_id, parent_span);
  ++st.references;

  silkmoth::SchemeParams params;
  params.scheme = options.scheme;
  params.phi = options.phi;
  params.theta = silkmoth::MatchingThreshold(options.delta, ref.Size());
  params.alpha = options.alpha;
  params.q = options.EffectiveQ();
  int32_t span = OpenSpan(spans, Layer::kSig, trace_id, pass);
  const silkmoth::Signature sig =
      silkmoth::GenerateSignature(ref, index, params);
  CloseSpan(spans, span);
  st.signature_tokens += sig.NumProbeTokens();

  std::vector<Candidate> candidates;
  const bool use_check = options.check_filter || options.nn_filter;
  if (sig.valid) {
    silkmoth::CheckFilterStats cs;
    span = OpenSpan(spans, Layer::kCheck, trace_id, pass);
    candidates = silkmoth::SelectAndCheckCandidates(
        ref, sig, data, index, options, use_check, &cs, sim, scratch);
    CloseSpan(spans, span);
    st.initial_candidates += cs.initial_candidates;
    st.after_size += cs.initial_candidates - cs.size_filtered;
    st.similarity_calls += cs.similarity_calls;
    c->postings_scanned += cs.postings_scanned;
    c->size_filtered += cs.size_filtered;
    c->check_filtered += cs.check_filtered;
    c->check_phi += cs.similarity_calls;
  } else {
    span = OpenSpan(spans, Layer::kCheck, trace_id, pass);
    candidates = silkmoth::AllCandidates(ref, data, options, scan_range);
    CloseSpan(spans, span);
    ++st.fallback_scans;
    st.initial_candidates += candidates.size();
    st.after_size += candidates.size();
  }
  st.after_check += candidates.size();

  if (options.nn_filter && sig.valid) {
    silkmoth::NnFilterStats ns;
    span = OpenSpan(spans, Layer::kNn, trace_id, pass);
    candidates = silkmoth::NnFilterCandidates(ref, sig, std::move(candidates),
                                              data, index, options, &ns, sim,
                                              scratch);
    CloseSpan(spans, span);
    st.similarity_calls += ns.similarity_calls;
    c->nn_searches += ns.nn_searches;
    c->nn_phi += ns.similarity_calls;
    c->early_terminations += ns.early_terminations;
  }
  st.after_nn += candidates.size();

  const silkmoth::MaxMatchingVerifier verifier(sim, options.alpha,
                                               options.reduction);
  for (const Candidate& cand : candidates) {
    if (cand.set_id == exclude_set) continue;
    const silkmoth::SetRecord& s = data.sets[cand.set_id];
    const double m_threshold =
        silkmoth::RelatedScoreThreshold(ref.Size(), s.Size(), options);
    const double margin =
        silkmoth::kFloatSlack *
        (static_cast<double>(ref.Size() + s.Size()) + 2.0);
    const double floor_theta =
        top_k > 0 && results.size() == top_k
            ? silkmoth::ScoreThresholdForRelatedness(
                  results.front().relatedness, ref.Size(), s.Size(), options)
            : -1.0;
    silkmoth::MatchingStats ms;
    span = OpenSpan(spans, Layer::kMatching, trace_id, pass);
    const silkmoth::VerifyDecision d =
        verifier.ScoreDecision(ref, s, m_threshold, &ms, margin,
                               options.exact_scores, floor_theta);
    CloseSpan(spans, span);
    if (probe != nullptr && probe->seen++ % probe->every == 0) {
      ProbeMatching(ref, s, sim, options, probe);
    }
    ++st.verifications;
    st.similarity_calls += ms.similarity_calls;
    st.reduced_pairs += ms.reduced_pairs;
    st.bound_accepts += ms.bound_accepts;
    st.bound_rejects += ms.bound_rejects;
    st.tier2_accepts += ms.tier2_accepts;
    st.heap_floor_rejects += ms.floor_rejects;
    st.exact_solves += ms.exact_solves;
    st.reporting_solves += ms.reporting_solves;
    c->matching_phi += ms.similarity_calls;
    const bool related =
        d.exact ? silkmoth::IsRelated(d.score, ref.Size(), s.Size(), options)
                : d.related;
    if (!related) continue;
    ++c->accepted;
    const double m = d.exact ? d.score : d.lower;
    if (!d.exact) ++st.bound_only_scores;
    SearchMatch match;
    match.set_id = cand.set_id;
    match.matching_score = m;
    match.relatedness =
        silkmoth::RelatednessScore(m, ref.Size(), s.Size(), options);
    if (top_k == 0) {
      results.push_back(match);
    } else if (results.size() < top_k) {
      results.push_back(match);
      std::push_heap(results.begin(), results.end(), IsBetterMatch);
    } else if (IsBetterMatch(match, results.front())) {
      std::pop_heap(results.begin(), results.end(), IsBetterMatch);
      results.back() = match;
      std::push_heap(results.begin(), results.end(), IsBetterMatch);
    }
  }
  st.results += results.size();
  if (top_k > 0) {
    std::sort(results.begin(), results.end(), IsBetterMatch);
  } else {
    std::sort(results.begin(), results.end(),
              [](const SearchMatch& a, const SearchMatch& b) {
                return a.set_id < b.set_id;
              });
  }
  CloseSpan(spans, pass);
  return results;
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void ReportSearchLayers(const LayerTimes& t, const LayerCounters& c,
                        const MatchingProbe& probe, double worker_seconds,
                        Report* r) {
  const silkmoth::SearchStats& f = c.funnel;
  const double sig = t.Self(Layer::kSig);
  const double check = t.Self(Layer::kCheck);
  const double nn = t.Self(Layer::kNn);
  const double matching = t.Self(Layer::kMatching);
  r->Layer("sig.busy_s", sig, "s");
  r->Layer("sig.share", Ratio(sig, worker_seconds), "ratio");
  r->Layer("sig.probe_tokens", static_cast<double>(f.signature_tokens),
           "count");
  r->Layer("filter.check.busy_s", check, "s");
  r->Layer("filter.check.share", Ratio(check, worker_seconds), "ratio");
  r->Layer("filter.check.postings_scanned",
           static_cast<double>(c.postings_scanned), "count");
  r->Layer("filter.check.phi_calls", static_cast<double>(c.check_phi),
           "count");
  r->Layer("filter.check.touched", static_cast<double>(f.initial_candidates),
           "count");
  r->Layer("filter.check.check_filtered",
           static_cast<double>(c.check_filtered), "count");
  r->Layer("filter.check.size_pruned_ratio",
           Ratio(static_cast<double>(c.size_filtered),
                 static_cast<double>(f.initial_candidates)),
           "ratio");
  r->Layer("filter.check.pass_ratio",
           Ratio(static_cast<double>(f.after_check),
                 static_cast<double>(f.after_size)),
           "ratio");
  r->Layer("filter.nn.busy_s", nn, "s");
  r->Layer("filter.nn.share", Ratio(nn, worker_seconds), "ratio");
  r->Layer("filter.nn.searches", static_cast<double>(c.nn_searches), "count");
  r->Layer("filter.nn.phi_calls", static_cast<double>(c.nn_phi), "count");
  r->Layer("filter.nn.early_terminations",
           static_cast<double>(c.early_terminations), "count");
  r->Layer("filter.nn.pass_ratio",
           Ratio(static_cast<double>(f.after_nn),
                 static_cast<double>(f.after_check)),
           "ratio");
  r->Layer("matching.busy_s", matching, "s");
  r->Layer("matching.share", Ratio(matching, worker_seconds), "ratio");
  r->Layer("matching.verifications", static_cast<double>(f.verifications),
           "count");
  r->Layer("matching.phi_calls", static_cast<double>(c.matching_phi),
           "count");
  r->Layer("matching.exact_solves", static_cast<double>(f.exact_solves),
           "count");
  r->Layer("matching.reporting_solves",
           static_cast<double>(f.reporting_solves), "count");
  r->Layer("matching.floor_rejects",
           static_cast<double>(f.heap_floor_rejects), "count");
  r->Layer("matching.accept_ratio",
           Ratio(static_cast<double>(c.accepted),
                 static_cast<double>(f.verifications)),
           "ratio");
  const double pairs = static_cast<double>(probe.pairs);
  r->Layer("matching.fill_us", Ratio(probe.fill_s * 1e6, pairs), "us");
  r->Layer("matching.local_max_us", Ratio(probe.local_max_s * 1e6, pairs),
           "us");
  r->Layer("matching.hungarian_us", Ratio(probe.hungarian_s * 1e6, pairs),
           "us");
  r->Layer("core.pass_s", t.Self(Layer::kCorePass), "s");
  r->Layer("core.layer_coverage",
           Ratio(sig + check + nn + matching + t.Self(Layer::kQueryTokenize),
                 worker_seconds),
           "ratio");
}

}  // namespace perfbench
