#include "core/engine.h"

#include <span>

#include "core/query_scratch.h"
#include "core/sharded_engine.h"

namespace silkmoth {

SilkMoth::SilkMoth(const Collection* data, Options options)
    : data_(data), options_(options) {
  error_ = options_.Validate();
  if (error_.empty()) index_.Build(*data_);
}

std::vector<SearchMatch> SilkMoth::Search(const SetRecord& ref,
                                          SearchStats* stats) const {
  if (!ok()) return {};
  // One scratch per thread, reused across calls: repeated searches pay the
  // dense-array allocation once (the scratch grows to any collection it
  // sees and epoch-stamping keeps stale state invisible). ShrinkTo bounds
  // the retention when a past query against a much larger collection left
  // oversized buffers behind.
  static thread_local QueryScratch scratch;
  scratch.ShrinkTo(data_->sets.size());
  return RunSearchPass(ref, *data_, index_, options_, kNoExclude, stats,
                       &scratch);
}

std::vector<SearchMatch> SilkMoth::SearchTopK(const SetRecord& ref, size_t k,
                                              SearchStats* stats) const {
  if (!ok() || k == 0) return {};
  // The pass runs in top-k mode: it keeps a k-best heap during verification
  // and threads the heap's k-th-best score into the verifier as a floating
  // floor, so candidates whose upper bound cannot reach the current top k
  // are rejected without any matching solve. The returned matches are
  // already the exact top k, sorted best-first.
  static thread_local QueryScratch scratch;
  scratch.ShrinkTo(data_->sets.size());
  return RunSearchPass(ref, *data_, index_, options_, kNoExclude, stats,
                       &scratch, SetIdRange{}, k);
}

std::vector<PairMatch> SilkMoth::Discover(const Collection& refs,
                                          SearchStats* stats) const {
  return Discover(ReferenceBlock::External(refs), stats);
}

std::vector<PairMatch> SilkMoth::DiscoverSelf(SearchStats* stats) const {
  return Discover(ReferenceBlock::SelfJoin(*data_), stats);
}

std::vector<PairMatch> SilkMoth::Discover(const ReferenceBlock& block,
                                          SearchStats* stats) const {
  if (!ok()) return {};
  // The whole index is one shard. The default SetIdRange{} spans every set
  // id, and DiscoverAcrossShards never treats it as an empty shard, so an
  // external block over an empty collection still stamps its query-side
  // counters (a {0, n} range would be skipped when n == 0).
  const ShardView shard{SetIdRange{}, &index_};
  ShardedSearchStats shard_stats;
  if (stats != nullptr) shard_stats.Reset(1);
  std::vector<PairMatch> results = DiscoverAcrossShards(
      block, *data_, std::span<const ShardView>(&shard, 1), options_,
      stats != nullptr ? &shard_stats : nullptr);
  if (stats != nullptr) stats->Merge(shard_stats.per_shard[0]);
  return results;
}

}  // namespace silkmoth
