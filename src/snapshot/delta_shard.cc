#include "snapshot/delta_shard.h"

#include <limits>
#include <utility>

namespace silkmoth {

DeltaShard::DeltaShard(const Collection* base, TokenizerKind tokenizer, int q)
    : arena_(std::make_shared<ElementArena>()),
      tokenizer_(tokenizer, q),
      base_sets_(base->sets.size()) {
  // Set views are cheap (string_view/span triples); copying them here is
  // what lets combined_ be handed to DiscoverAcrossShards as one
  // contiguous collection without touching base bytes.
  combined_.sets = base->sets;
  combined_.dict = base->dict;
}

DeltaShard::DeltaShard(const DeltaShard& other, int)
    : combined_(other.combined_),
      arena_(other.arena_),
      tokenizer_(other.tokenizer_),
      base_sets_(other.base_sets_),
      oov_tokens_(other.oov_tokens_),
      batches_(other.batches_) {}

std::string DeltaShard::Ingest(const RawSets& raw) {
  if (raw.empty()) return "";
  if (combined_.dict == nullptr) return "delta shard has no dictionary";
  const size_t total = combined_.sets.size() + raw.size();
  if (total > std::numeric_limits<uint32_t>::max()) {
    return "ingest would overflow the 32-bit set-id space";
  }
  const size_t dict_before = combined_.dict->size();
  combined_.sets.reserve(total);
  for (const std::vector<std::string>& texts : raw) {
    SetRecord set =
        tokenizer_.MakeSet(texts, combined_.dict.get(), arena_.get());
    // Each delta set holds the arena so combined() stays self-sufficient
    // for the delta side; base sets keep whatever storage they came with.
    set.arena = arena_;
    combined_.sets.push_back(std::move(set));
  }
  oov_tokens_ += combined_.dict->size() - dict_before;
  batches_ += 1;
  index_.Build(combined_, static_cast<uint32_t>(base_sets_),
               static_cast<uint32_t>(combined_.sets.size()));
  return "";
}

std::shared_ptr<DeltaShard> DeltaShard::WithIngested(const RawSets& raw,
                                                     std::string* err) const {
  std::shared_ptr<DeltaShard> next(new DeltaShard(*this, 0));
  std::string e = next->Ingest(raw);
  if (!e.empty()) {
    if (err != nullptr) *err = std::move(e);
    return nullptr;
  }
  // A no-op ingest (empty batch) leaves the clone's index unbuilt; rebuild
  // so the clone is always queryable on its own.
  if (next->delta_sets() > 0 && raw.empty()) {
    next->index_.Build(next->combined_,
                       static_cast<uint32_t>(next->base_sets_),
                       static_cast<uint32_t>(next->combined_.sets.size()));
  }
  if (err != nullptr) err->clear();
  return next;
}

ShardView DeltaShard::View() const {
  ShardView view;
  view.range = {static_cast<uint32_t>(base_sets_),
                static_cast<uint32_t>(combined_.sets.size())};
  view.index = &index_;
  return view;
}

std::vector<ShardView> SnapshotShardViews(const Snapshot& snap,
                                          const DeltaShard* delta) {
  std::vector<ShardView> views;
  views.reserve(snap.num_shards() + 1);
  for (const Snapshot::Shard& shard : snap.shards) {
    views.push_back(ShardView{shard.range, &shard.index});
  }
  if (delta != nullptr && delta->delta_sets() > 0) {
    views.push_back(delta->View());
  }
  return views;
}

}  // namespace silkmoth
