#ifndef SILKMOTH_PERFBENCH_REPLICA_H_
#define SILKMOTH_PERFBENCH_REPLICA_H_

// The layer-by-layer replica of one search pass. It calls the library's
// public layer functions in the order RunSearchPass does (GenerateSignature,
// SelectAndCheckCandidates, NnFilterCandidates, one
// MaxMatchingVerifier::ScoreDecision per candidate with the top-k heap
// floor) and opens one span per call under a core.pass parent. The traced
// runs check that it reproduces RunSearchPass's matches and SearchStats
// funnel exactly, and read from it the counters SearchStats drops.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.h"
#include "core/options.h"
#include "core/query_scratch.h"
#include "core/search_pass.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

namespace perfbench {

/// Counters of one or more replica passes: the SearchStats funnel exactly
/// as RunSearchPass fills it, plus what the filter and matching stats
/// structs carry and SearchStats drops.
struct LayerCounters {
  silkmoth::SearchStats funnel;
  size_t postings_scanned = 0;  ///< CheckFilterStats::postings_scanned.
  size_t size_filtered = 0;     ///< CheckFilterStats::size_filtered.
  size_t check_filtered = 0;    ///< CheckFilterStats::check_filtered.
  size_t check_phi = 0;         ///< φ calls in the check filter.
  size_t nn_searches = 0;       ///< NnFilterStats::nn_searches.
  size_t nn_phi = 0;            ///< φ calls in NN searches.
  size_t early_terminations = 0;///< NnFilterStats::early_terminations.
  size_t matching_phi = 0;      ///< φ calls filling weight matrices.
  size_t accepted = 0;          ///< Verifications deciding "related".

  void Merge(const LayerCounters& o);
};

/// Re-executes the verifier's stages on sampled candidate pairs outside
/// any span: the weight-matrix fill, the local-max bound and the Hungarian
/// solve, each timed on its own.
struct MatchingProbe {
  size_t every = 1;   ///< Probe one verification in `every`.
  size_t seen = 0;
  size_t pairs = 0;   ///< Verifications probed.
  double fill_s = 0.0;
  double local_max_s = 0.0;
  double hungarian_s = 0.0;
  double sink = 0.0;  ///< Keeps the probed results observable.

  void Merge(const MatchingProbe& o);
};

/// One search pass through the public layer functions. Same contract and
/// output as silkmoth::RunSearchPass with the same arguments. `spans` may
/// be null (no tracing); the pass's core.pass span is opened under
/// `parent_span` (-1: a root). `probe` may be null (no re-executed probes).
std::vector<silkmoth::SearchMatch> ReplicaSearchPass(
    const silkmoth::SetRecord& ref, const silkmoth::Collection& data,
    const silkmoth::InvertedIndex& index, const silkmoth::Options& options,
    uint32_t exclude_set, silkmoth::SetIdRange scan_range, size_t top_k,
    silkmoth::QueryScratch* scratch, SpanBuffer* spans, uint32_t trace_id,
    int32_t parent_span, LayerCounters* counters, MatchingProbe* probe);

/// Writes the per-layer metrics every traced run shares: busy and self
/// times, counts, ratios, and the layer coverage of `worker_seconds`
/// (the summed duration of the traced root spans): the share of it that
/// the sig, filter, matching and query-tokenization spans cover by self
/// time.
void ReportSearchLayers(const LayerTimes& times, const LayerCounters& c,
                        const MatchingProbe& probe, double worker_seconds,
                        Report* report);

}  // namespace perfbench

#endif  // SILKMOTH_PERFBENCH_REPLICA_H_
