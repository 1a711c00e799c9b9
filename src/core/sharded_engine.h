#ifndef SILKMOTH_CORE_SHARDED_ENGINE_H_
#define SILKMOTH_CORE_SHARDED_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/options.h"
#include "core/reference_block.h"
#include "core/search_pass.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

namespace silkmoth {

/// The canonical shard partition: splits [0, data.NumSets()) into
/// `num_shards` contiguous, cost-balanced ranges (trailing shards may be
/// empty). ShardedEngine and the snapshot builder both use this, so shard k
/// of a snapshot covers exactly the same set-id range as shard k of an
/// in-process run with the same shard count — the invariant the
/// cross-process merge parity rests on. num_shards must be >= 1.
///
/// Balancing: contiguous-equal-count ranges inherit insertion-order skew
/// (one hot shard on near-duplicate-clustered corpora makes the slowest
/// worker the wall clock), so the partition instead balances a per-set
/// *cost proxy* — Σ over the set's element tokens of the token's global
/// posting count, i.e. the candidate postings a probe of that set touches.
/// A single shard is the whole collection and skips the cost passes.
/// When the proxy degenerates to all-zero (token-free corpus) it falls back
/// to element counts, then to one unit per set (the uniform split). Ranges
/// are assigned by deterministic greedy prefix balancing: shard s takes
/// sets until its cost reaches remaining_cost / remaining_shards, taking
/// the boundary set only when that overshoots less than stopping
/// undershoots. Ranges stay contiguous and ascending, so the byte-identity
/// merge protocol is untouched.
std::vector<SetIdRange> ComputeShardRanges(const Collection& data,
                                           uint32_t num_shards);

/// Builds one CSR index per range over `collection`, with up to
/// `num_threads` parallel builders (each builder only reads the immutable
/// collection and writes its own slots). The shared index-construction step
/// of ShardedEngine and the snapshot builder.
std::vector<InvertedIndex> BuildShardIndexes(
    const Collection& collection, const std::vector<SetIdRange>& ranges,
    int num_threads);

/// One shard of a candidate universe as seen by DiscoverAcrossShards:
/// a set-id range plus the index built over it (not owned).
struct ShardView {
  SetIdRange range;                      ///< Global set ids the shard owns.
  const InvertedIndex* index = nullptr;  ///< Index over `range` (borrowed).
};

/// The one discovery driver behind every execution mode. Its callers are
/// SilkMoth::Discover (its whole index as one shard), ShardedEngine, the
/// out-of-process shard runner, the CLI's `query` and `discover
/// --snapshot` (snapshot shards plus an optional delta shard), the serve
/// engine, and the bench runner. The parity-critical loop (self-pair
/// exclusion, unordered-pair dedup, worker chunking, per-worker scratch,
/// stats discipline, canonical sort) therefore exists once and cannot
/// drift between them.
///
/// Streams every reference of `block` through every shard in `shards`:
/// up to options.num_threads workers each take a contiguous slice of the
/// block with one QueryScratch per (worker, shard). For self-join blocks,
/// block.refs must be `data` itself; self-pairs are excluded and symmetric
/// metrics report each unordered pair once (ref_id < set_id). External
/// blocks evaluate every (query, candidate) pair — no exclusion, no dedup —
/// and additionally stamp the query_sets/oov_tokens counters on every
/// non-empty shard slot. Empty shards are skipped entirely — zero passes,
/// zero stats. `stats`, when non-null, must have per_shard.size() ==
/// shards.size(); slot i aggregates every pass against shards[i]. Returns
/// the canonical (ref_id, set_id)-sorted stream.
std::vector<PairMatch> DiscoverAcrossShards(const ReferenceBlock& block,
                                            const Collection& data,
                                            std::span<const ShardView> shards,
                                            const Options& options,
                                            ShardedSearchStats* stats);

/// Sharded SilkMoth engine: the single-index framework partitioned into
/// `Options::num_shards` contiguous shards.
///
/// SilkMoth's search pass only needs an inverted index over the candidate
/// universe, so the indexed collection splits exactly: shard k owns a
/// contiguous set-id range (cost-balanced by ComputeShardRanges) and
/// carries its own CSR
/// InvertedIndex built over just that range (postings keep global set ids;
/// the token dictionary is the collection's, shared by all shards). A
/// reference is answered by streaming it through every shard's index and
/// concatenating the per-shard matches — ranges are disjoint and ascending,
/// so the concatenation is already sorted by set id and the union is
/// *exactly* the single-index result, scores included (verification only
/// ever looks at the (reference, set) records, never the index).
///
/// Discovery runs as a batch pipeline: each worker thread takes a block of
/// references and pushes every reference through all shards, with one
/// QueryScratch per (worker, shard) so shard passes never share transient
/// state — the layout a future multi-process split inherits directly.
/// Per-shard SearchStats aggregate into ShardedSearchStats.
///
/// Like SilkMoth, the engine holds a pointer to `data`, which must outlive
/// it; everything is immutable after construction, so all query methods are
/// const and thread-safe.
///
/// Usage:
///   Options opt;
///   opt.num_shards = 4;
///   opt.num_threads = 8;
///   ShardedEngine engine(&data, opt);
///   auto pairs = engine.DiscoverSelf();   // == SilkMoth(&data, opt).DiscoverSelf()
class ShardedEngine {
 public:
  /// `data` must outlive the engine. Options are validated eagerly; invalid
  /// options are reported through ok()/error() and queries return empty.
  /// Shard indexes are built in parallel (up to options.num_threads
  /// builders). num_shards may exceed the set count; trailing shards are
  /// then empty and answer every query with no matches.
  ShardedEngine(const Collection* data, Options options);

  /// True when construction validated the options; queries on a not-ok
  /// engine return empty results.
  bool ok() const { return error_.empty(); }
  /// Human-readable validation error ("" when ok()).
  const std::string& error() const { return error_; }
  /// The validated engine configuration.
  const Options& options() const { return options_; }
  /// The indexed collection (owned by the caller).
  const Collection& data() const { return *data_; }

  /// Number of shards actually built: options.num_shards, or 0 when the
  /// engine is not ok() (no shards exist then).
  size_t num_shards() const { return shards_.size(); }

  /// Shard `shard`'s index (postings restricted to shard_range(shard)).
  const InvertedIndex& shard_index(size_t shard) const {
    return shards_[shard].index;
  }

  /// Shard `shard`'s contiguous global set-id range (may be empty).
  SetIdRange shard_range(size_t shard) const { return shards_[shard].range; }

  /// RELATED SET SEARCH (Problem 2) across all shards. Identical result to
  /// SilkMoth::Search on the same data and options.
  std::vector<SearchMatch> Search(const SetRecord& ref,
                                  ShardedSearchStats* stats = nullptr) const;

  /// RELATED SET DISCOVERY (Problem 1) across two collections: every
  /// reference is streamed through every shard. Results sorted by
  /// (ref_id, set_id); identical to SilkMoth::Discover.
  std::vector<PairMatch> Discover(const Collection& refs,
                                  ShardedSearchStats* stats = nullptr) const;

  /// Block-granular discovery: streams exactly the references `block`
  /// selects (a self-join sub-range or an external query collection)
  /// through every shard. The full-collection self-join block reproduces
  /// DiscoverSelf byte for byte. Self-join blocks must view this engine's
  /// own data collection.
  std::vector<PairMatch> Discover(const ReferenceBlock& block,
                                  ShardedSearchStats* stats = nullptr) const;

  /// Discovery within the indexed collection itself (R = S). Self-pairs are
  /// skipped; under SET-SIMILARITY each unordered pair is reported once,
  /// under SET-CONTAINMENT both directions are evaluated. Identical to
  /// SilkMoth::DiscoverSelf.
  std::vector<PairMatch> DiscoverSelf(ShardedSearchStats* stats = nullptr) const;

 private:
  /// One shard: its set-id range and the index over it.
  struct Shard {
    SetIdRange range;
    InvertedIndex index;
  };

  const Collection* data_;
  Options options_;
  std::vector<Shard> shards_;
  std::string error_;
};

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_SHARDED_ENGINE_H_
