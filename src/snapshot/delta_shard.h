#ifndef SILKMOTH_SNAPSHOT_DELTA_SHARD_H_
#define SILKMOTH_SNAPSHOT_DELTA_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "index/inverted_index.h"
#include "snapshot/snapshot.h"
#include "text/dataset.h"
#include "text/tokenizer.h"

namespace silkmoth {

/// In-memory, append-only delta over a write-once base corpus — the
/// KVell-style in-memory-index-over-persistent-base split applied to
/// SilkMoth. The base stays exactly as loaded (typically a mmapped
/// snapshot); new sets accumulate here, owned outright, and discovery
/// streams both through the one `DiscoverAcrossShards` driver as just
/// another shard.
///
/// Three disciplines make base + delta indistinguishable from a rebuilt
/// corpus:
///
///  - **Global set ids.** Delta sets continue the base's id space: the
///    first ingested set is id base_sets(), and View() reports the range
///    [base_sets(), base_sets() + delta_sets()). The delta's CSR index is
///    built with `InvertedIndex::Build(collection, begin, end)`, which
///    keeps global ids — so to the discovery driver the delta is a shard
///    like any other, merely one that grows between queries.
///
///  - **Shared dictionary, OOV appended post-index.** New sets intern
///    through the *base's* TokenDictionary. Tokens the base never saw get
///    fresh ids past every base index's range — they probe empty inverted
///    lists there, exactly the established external-query OOV discipline —
///    while the delta's own index, rebuilt after each batch, covers them.
///    Interning mutates the shared dictionary, so ingest sits under the
///    same single-writer rule as BuildQueryBlock (the serve daemon runs it
///    under its tokenize mutex).
///
///  - **Owned storage.** Delta element bytes live in a delta-owned
///    ElementArena (chunked, never reallocating in place — views stay
///    valid across appends), and every delta SetRecord holds a share of
///    it. Base set views keep aliasing base storage, so the base
///    Collection/Snapshot must outlive the delta.
///
/// The governing contract (pinned by tests/delta_parity_property_test.cc):
/// discovery over base shards + View() is byte-identical to discovery over
/// the snapshot a `CompactSnapshot` of the same state produces — every
/// metric, exact and approx scores alike.
///
/// The class is not thread-safe for mutation. For the serve daemon's
/// read-mostly pattern, WithIngested() produces a grown *copy* while every
/// view handed out by the original stays valid (shared arena + shared
/// dictionary only ever append), so in-flight requests finish against
/// their generation untouched.
class DeltaShard {
 public:
  /// Starts an empty delta over `base`, which must outlive this shard (and
  /// every clone made from it). `tokenizer`/`q` must match how the base
  /// was tokenized — the snapshot records them.
  DeltaShard(const Collection* base, TokenizerKind tokenizer, int q);

  DeltaShard(const DeltaShard&) = delete;
  DeltaShard& operator=(const DeltaShard&) = delete;

  /// Appends one batch of raw sets: tokenizes against the shared
  /// dictionary (interning OOV tokens), assigns the next global set ids,
  /// and rebuilds the delta index over all delta sets. Empty batches are
  /// no-ops. Returns "" on success, else a one-line error.
  std::string Ingest(const RawSets& raw);

  /// Copy-and-ingest: returns a new DeltaShard equal to this one plus
  /// `raw`, leaving this one untouched (its index, views, and counters are
  /// all still valid — the serve hot-path contract). The clone shares the
  /// arena and dictionary, both append-only, so old views never dangle.
  /// Callers must serialize all ingests (single-writer rule). On failure
  /// returns nullptr and sets *err.
  std::shared_ptr<DeltaShard> WithIngested(const RawSets& raw,
                                           std::string* err) const;

  /// The combined collection — base sets first, delta sets after, one
  /// shared dictionary. This is the `data` argument for
  /// DiscoverAcrossShards over base + delta.
  const Collection& combined() const { return combined_; }

  /// The delta as a shard: range [base_sets(), base_sets()+delta_sets())
  /// and the index over it. Empty-range views are skipped by the driver,
  /// so a fresh delta costs nothing. The view borrows this shard.
  ShardView View() const;

  /// Number of base sets (the delta's first global set id).
  size_t base_sets() const { return base_sets_; }
  /// Number of sets ingested so far.
  size_t delta_sets() const { return combined_.sets.size() - base_sets_; }
  /// Distinct tokens interned by ingest that the dictionary lacked.
  size_t oov_tokens() const { return oov_tokens_; }
  /// Number of non-empty batches ingested.
  size_t batches() const { return batches_; }

 private:
  /// Clone for WithIngested: shares arena + dictionary, copies set views
  /// and counters, leaves the index empty (the caller rebuilds).
  DeltaShard(const DeltaShard& other, int);

  Collection combined_;  ///< Base set views + owned delta sets, shared dict.
  std::shared_ptr<ElementArena> arena_;  ///< Owns delta element bytes.
  Tokenizer tokenizer_;
  size_t base_sets_ = 0;
  size_t oov_tokens_ = 0;
  size_t batches_ = 0;
  InvertedIndex index_;  ///< CSR over delta sets, global ids.
};

/// The shard list discovery over a loaded snapshot streams through: every
/// snapshot shard in order, then `delta`'s View() when `delta` is non-null
/// and holds sets (an empty delta adds no stats slot). The views borrow
/// `snap` and `delta`. The CLI's `query` and `discover --snapshot` and the
/// serve engine all build their lists here.
std::vector<ShardView> SnapshotShardViews(const Snapshot& snap,
                                          const DeltaShard* delta);

}  // namespace silkmoth

#endif  // SILKMOTH_SNAPSHOT_DELTA_SHARD_H_
