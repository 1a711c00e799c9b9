#ifndef SILKMOTH_CORE_ENGINE_H_
#define SILKMOTH_CORE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/reference_block.h"
#include "core/search_pass.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

/// The SilkMoth reproduction: engines, search pass, signature schemes,
/// filters, maximum-matching verification, and the supporting text, index,
/// and data-generation utilities.
namespace silkmoth {

/// One related pair found in discovery mode.
struct PairMatch {
  uint32_t ref_id = 0;          ///< Index into the reference collection.
  uint32_t set_id = 0;          ///< Index into the indexed collection.
  double matching_score = 0.0;  ///< |R ∩̃φα S|.
  double relatedness = 0.0;     ///< similar() or contain() value.

  /// Structural equality (ids and exact scores).
  friend bool operator==(const PairMatch&, const PairMatch&) = default;
};

/// Canonical discovery output order: ascending (ref_id, set_id). The
/// discovery driver sorts with this and the shard-result merge checks it,
/// which is what makes every mode's output comparable byte-for-byte.
inline bool PairMatchIdLess(const PairMatch& a, const PairMatch& b) {
  if (a.ref_id != b.ref_id) return a.ref_id < b.ref_id;
  return a.set_id < b.set_id;
}

/// True when a self-join under `metric` reports each unordered pair once
/// (keeping ref_id < set_id): the symmetric SET-SIMILARITY case.
/// SET-CONTAINMENT is asymmetric, so both directions are evaluated. Shared so
/// the discovery driver and any code replaying it cannot diverge.
inline bool SelfJoinReportsUnorderedPairs(Relatedness metric) {
  return metric == Relatedness::kSimilarity;
}

/// The SilkMoth engine (Section 3's framework).
///
/// Construction builds the inverted index over `data` once; every search
/// pass afterwards reuses it. The engine holds a pointer to `data`, which
/// must outlive it; both the collection and the index are immutable after
/// construction, so all query methods are const and thread-safe.
///
/// Usage:
///   Collection data = ...;                       // via datagen builders
///   Options opt;
///   opt.metric = Relatedness::kContainment;
///   opt.delta = 0.7;
///   SilkMoth engine(&data, opt);
///   auto matches = engine.Search(reference_set); // RELATED SET SEARCH
///   auto pairs = engine.DiscoverSelf();          // RELATED SET DISCOVERY
///
/// Discovery runs through DiscoverAcrossShards (core/sharded_engine.h), the
/// one driver every discovery mode shares, with this engine's index as the
/// single shard; the worker threads and their QueryScratch live there.
/// Search and SearchTopK run one search pass directly.
///
/// ShardedEngine (core/sharded_engine.h) is the drop-in sharded variant:
/// same queries, identical results, Options::num_shards indexes.
class SilkMoth {
 public:
  /// `data` must outlive the engine. Options are validated eagerly: invalid
  /// options are reported through ok()/error() and queries return empty.
  SilkMoth(const Collection* data, Options options);

  /// True when construction validated the options; queries on a not-ok
  /// engine return empty results.
  bool ok() const { return error_.empty(); }
  /// Human-readable validation error ("" when ok()).
  const std::string& error() const { return error_; }
  /// The validated engine configuration.
  const Options& options() const { return options_; }
  /// The inverted index built over data() at construction.
  const InvertedIndex& index() const { return index_; }
  /// The indexed collection (owned by the caller).
  const Collection& data() const { return *data_; }

  /// RELATED SET SEARCH (Problem 2): all sets related to `ref`. The
  /// reference must be tokenized against the data collection's dictionary.
  std::vector<SearchMatch> Search(const SetRecord& ref,
                                  SearchStats* stats = nullptr) const;

  /// Extension: the k most related sets among those with relatedness >=
  /// options().delta, ordered by descending relatedness (ties broken by
  /// ascending set id). Output-identical to selecting the k best from the
  /// full Search result, but runs the pass in top-k mode: a running heap
  /// of the k best feeds its k-th-best score back into verification as a
  /// floating floor, so candidates provably outside the top k are dropped
  /// without a matching solve (`heap_floor_rejects` counts them).
  std::vector<SearchMatch> SearchTopK(const SetRecord& ref, size_t k,
                                      SearchStats* stats = nullptr) const;

  /// RELATED SET DISCOVERY (Problem 1) across two collections: one search
  /// pass per reference set. Results sorted by (ref_id, set_id).
  std::vector<PairMatch> Discover(const Collection& refs,
                                  SearchStats* stats = nullptr) const;

  /// Block-granular discovery: streams exactly the references `block`
  /// selects — a self-join sub-range of the indexed collection or an
  /// external query collection tokenized against its dictionary (see
  /// core/reference_block.h). The full-collection self-join block is
  /// byte-identical to DiscoverSelf; external blocks additionally stamp
  /// the query_sets/oov_tokens counters. Self-join blocks must view this
  /// engine's own data collection.
  std::vector<PairMatch> Discover(const ReferenceBlock& block,
                                  SearchStats* stats = nullptr) const;

  /// Discovery within the indexed collection itself (R = S, the paper's
  /// string/schema matching setup). Self-pairs are skipped; under
  /// SET-SIMILARITY each unordered pair is reported once (ref_id < set_id);
  /// under SET-CONTAINMENT both directions are evaluated because the metric
  /// is asymmetric.
  std::vector<PairMatch> DiscoverSelf(SearchStats* stats = nullptr) const;

 private:
  const Collection* data_;
  Options options_;
  InvertedIndex index_;
  std::string error_;
};

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_ENGINE_H_
