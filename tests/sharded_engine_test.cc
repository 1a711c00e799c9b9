// ShardedEngine properties, on randomized corpora:
//
//  1. Parity: sharded discovery (self-join and cross-collection) and search
//     return *identical* PairMatch/SearchMatch sets — ids and scores — to
//     the single-index engine, across metrics (similarity/containment),
//     similarity functions (Jaccard/Eds), shard counts, and thread counts.
//     Identity is exact (operator==), not within-tolerance: verification
//     only ever sees the (reference, set) records, so scores cannot depend
//     on how the index was partitioned.
//  2. Shard layout: the shard ranges are contiguous, disjoint, ascending,
//     and cover exactly [0, num_sets) — including the shards > sets edge
//     case, where trailing shards are empty.
//  3. Stats: per-shard SearchStats record the passes against that shard
//     only; empty shards record nothing; Total() equals the slot-wise sum;
//     per-shard `results` sum to the unsharded pass results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"

namespace silkmoth {
namespace {

struct ShardedCase {
  const char* name;
  Relatedness metric;
  SimilarityKind phi;
  double delta;
  double alpha;
};

Options MakeOptions(const ShardedCase& cfg) {
  Options opt;
  opt.metric = cfg.metric;
  opt.phi = cfg.phi;
  opt.delta = cfg.delta;
  opt.alpha = cfg.alpha;
  if (IsEditSimilarity(cfg.phi)) opt.q = MaxQForAlpha(cfg.alpha);
  return opt;
}

Collection MakeData(const ShardedCase& cfg, size_t sets, uint64_t seed) {
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;
  p.typo_rate = 0.3;
  p.seed = seed;
  const Options opt = MakeOptions(cfg);
  if (IsEditSimilarity(cfg.phi)) {
    return BuildCollection(GenerateDblpSets(p), TokenizerKind::kQGram,
                           opt.EffectiveQ());
  }
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kWord);
}

class ShardedEngineSweep : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(ShardedEngineSweep, DiscoverSelfMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 40, /*seed=*/11);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();
  const std::vector<PairMatch> expected = single.DiscoverSelf();
  ASSERT_FALSE(expected.empty()) << cfg.name
      << ": corpus produced no related pairs to compare";

  for (int shards : {1, 2, 3, 7, 16}) {
    for (int threads : {1, 3}) {
      Options opt = base;
      opt.num_shards = shards;
      opt.num_threads = threads;
      ShardedEngine engine(&data, opt);
      ASSERT_TRUE(engine.ok()) << engine.error();
      EXPECT_EQ(engine.DiscoverSelf(), expected)
          << cfg.name << ": shards=" << shards << " threads=" << threads;
    }
  }
}

TEST_P(ShardedEngineSweep, CrossCollectionDiscoverMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 32, /*seed=*/21);

  DblpParams p;
  p.num_titles = 12;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;
  p.typo_rate = 0.3;
  p.seed = 22;  // Overlapping vocabulary, fresh draws.
  const Collection refs =
      IsEditSimilarity(cfg.phi)
          ? BuildCollectionWithDict(GenerateDblpSets(p), TokenizerKind::kQGram,
                                    base.EffectiveQ(), data.dict)
          : BuildCollectionWithDict(GenerateDblpSets(p), TokenizerKind::kWord,
                                    0, data.dict);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();
  const std::vector<PairMatch> expected = single.Discover(refs);

  for (int shards : {2, 5}) {
    Options opt = base;
    opt.num_shards = shards;
    opt.num_threads = 2;
    ShardedEngine engine(&data, opt);
    ASSERT_TRUE(engine.ok()) << engine.error();
    EXPECT_EQ(engine.Discover(refs), expected)
        << cfg.name << ": shards=" << shards;
  }
}

TEST_P(ShardedEngineSweep, SearchMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 30, /*seed=*/31);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();

  Options opt = base;
  opt.num_shards = 4;
  ShardedEngine engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();

  size_t matched = 0;
  for (const SetRecord& ref : data.sets) {
    const std::vector<SearchMatch> expected = single.Search(ref);
    EXPECT_EQ(engine.Search(ref), expected) << cfg.name;
    matched += expected.size();
  }
  EXPECT_GT(matched, 0u) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ShardedEngineSweep,
    ::testing::Values(
        ShardedCase{"similarity_jaccard", Relatedness::kSimilarity,
                    SimilarityKind::kJaccard, 0.6, 0.4},
        ShardedCase{"containment_jaccard", Relatedness::kContainment,
                    SimilarityKind::kJaccard, 0.7, 0.0},
        ShardedCase{"similarity_eds", Relatedness::kSimilarity,
                    SimilarityKind::kEds, 0.5, 0.6}),
    [](const ::testing::TestParamInfo<ShardedCase>& info) {
      return info.param.name;
    });

// --- Shard layout edge cases -----------------------------------------------

TEST(ShardedEngineLayout, RangesPartitionTheCollection) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.0};
  Collection data = MakeData(cfg, 23, /*seed=*/41);
  for (int shards : {1, 2, 5, 23, 64}) {
    Options opt = MakeOptions(cfg);
    opt.num_shards = shards;
    ShardedEngine engine(&data, opt);
    ASSERT_TRUE(engine.ok()) << engine.error();
    ASSERT_EQ(engine.num_shards(), static_cast<size_t>(shards));

    uint32_t cursor = 0;
    size_t postings = 0;
    for (size_t s = 0; s < engine.num_shards(); ++s) {
      const SetIdRange range = engine.shard_range(s);
      EXPECT_EQ(range.begin, cursor) << "shards=" << shards << " s=" << s;
      EXPECT_LE(range.begin, range.end);
      cursor = range.end;
      postings += engine.shard_index(s).TotalPostings();
      // An empty shard must carry an empty index.
      if (range.begin == range.end) {
        EXPECT_EQ(engine.shard_index(s).TotalPostings(), 0u);
      }
    }
    EXPECT_EQ(cursor, data.sets.size()) << "shards=" << shards;

    // The shard indexes together hold exactly the full index's postings.
    InvertedIndex full;
    full.Build(data);
    EXPECT_EQ(postings, full.TotalPostings()) << "shards=" << shards;
  }
}

TEST(ShardedEngineLayout, MoreShardsThanSetsStillExact) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.0};
  Collection data = MakeData(cfg, 10, /*seed=*/43);

  SilkMoth single(&data, MakeOptions(cfg));
  ASSERT_TRUE(single.ok());

  Options opt = MakeOptions(cfg);
  opt.num_shards = 64;
  opt.num_threads = 2;
  ShardedEngine engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_EQ(engine.DiscoverSelf(), single.DiscoverSelf());
}

TEST(ShardedEngineLayout, EmptyCollection) {
  Collection data;
  Options opt;
  opt.num_shards = 4;
  ShardedEngine engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_TRUE(engine.DiscoverSelf().empty());
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const SetIdRange range = engine.shard_range(s);
    EXPECT_EQ(range.begin, range.end);
  }
}

TEST(ShardedEngineLayout, InvalidShardCountRejected) {
  Collection data;
  Options opt;
  opt.num_shards = 0;
  ShardedEngine engine(&data, opt);
  EXPECT_FALSE(engine.ok());
  EXPECT_NE(engine.error().find("num_shards"), std::string::npos);
  EXPECT_TRUE(engine.DiscoverSelf().empty());
}

// --- Per-shard stats aggregation -------------------------------------------

TEST(ShardedEngineStats, PerShardCountersAggregateToGlobal) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.4};
  Collection data = MakeData(cfg, 30, /*seed=*/51);

  Options opt = MakeOptions(cfg);
  opt.num_shards = 4;
  opt.num_threads = 3;
  ShardedEngine engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();

  ShardedSearchStats stats;
  engine.DiscoverSelf(&stats);
  ASSERT_EQ(stats.per_shard.size(), 4u);

  // Every non-empty shard sees every (non-empty) reference exactly once.
  size_t non_empty_refs = 0;
  for (const SetRecord& ref : data.sets) {
    if (!ref.Empty()) ++non_empty_refs;
  }
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const SetIdRange range = engine.shard_range(s);
    if (range.begin == range.end) {
      EXPECT_EQ(stats.per_shard[s].references, 0u) << "empty shard " << s;
    } else {
      EXPECT_EQ(stats.per_shard[s].references, non_empty_refs)
          << "shard " << s;
    }
  }

  // Total() is the slot-wise sum.
  SearchStats manual;
  for (const SearchStats& s : stats.per_shard) manual.Merge(s);
  const SearchStats total = stats.Total();
  EXPECT_EQ(total.references, manual.references);
  EXPECT_EQ(total.verifications, manual.verifications);
  EXPECT_EQ(total.results, manual.results);
  EXPECT_EQ(total.initial_candidates, manual.initial_candidates);

  // Shards never overlap, so result counts (pre-dedup search-pass results)
  // sum to exactly what the single-index engine's passes report.
  SilkMoth single(&data, MakeOptions(cfg));
  ASSERT_TRUE(single.ok());
  SearchStats single_stats;
  single.DiscoverSelf(&single_stats);
  EXPECT_EQ(total.results, single_stats.results);

  // The human-readable dump mentions each shard.
  const std::string dump = stats.ToString();
  EXPECT_NE(dump.find("per shard"), std::string::npos);
}

TEST(ShardedEngineStats, MergeIsSlotWise) {
  ShardedSearchStats a, b;
  a.Reset(2);
  b.Reset(2);
  a.per_shard[0].references = 3;
  a.per_shard[1].verifications = 5;
  b.per_shard[0].references = 4;
  b.per_shard[1].verifications = 7;
  a.Merge(b);
  EXPECT_EQ(a.per_shard[0].references, 7u);
  EXPECT_EQ(a.per_shard[1].verifications, 12u);
  EXPECT_EQ(a.Total().references, 7u);
  EXPECT_EQ(a.Total().verifications, 12u);

  // Merging into an empty instance adopts the other's shape.
  ShardedSearchStats c;
  c.Merge(a);
  ASSERT_EQ(c.per_shard.size(), 2u);
  EXPECT_EQ(c.per_shard[0].references, 7u);
}

// --- Engine funnel parity ----------------------------------------------------

// SilkMoth::Discover runs the one DiscoverAcrossShards driver with its whole
// index as a single shard, so it must agree with a one-shard ShardedEngine
// on the pair list *and* on every deterministic counter, for every kind of
// reference block and thread count.
TEST(ShardedEngineFunnel, SingleIndexMatchesOneShardEngine) {
  for (const ShardedCase& cfg :
       {ShardedCase{"similarity_jaccard", Relatedness::kSimilarity,
                    SimilarityKind::kJaccard, 0.6, 0.4},
        ShardedCase{"containment_jaccard", Relatedness::kContainment,
                    SimilarityKind::kJaccard, 0.7, 0.0}}) {
    Collection data = MakeData(cfg, 40, /*seed=*/31);
    DblpParams p;
    p.num_titles = 12;
    p.vocabulary = 80;  // Past the corpus vocabulary: some query OOV.
    p.min_words = 2;
    p.max_words = 6;
    p.duplicate_rate = 0.35;
    p.typo_rate = 0.3;
    p.seed = 32;
    Collection query;
    const ReferenceBlock external = BuildQueryBlock(
        GenerateDblpSets(p), TokenizerKind::kWord, 0, data, &query);
    const uint32_t n = static_cast<uint32_t>(data.NumSets());
    const std::vector<ReferenceBlock> blocks = {
        ReferenceBlock::SelfJoin(data),
        ReferenceBlock::SelfJoinRange(data, n / 4, n / 2), external};

    for (int threads : {1, 4}) {
      Options opt = MakeOptions(cfg);
      opt.num_threads = threads;
      SilkMoth single(&data, opt);
      ASSERT_TRUE(single.ok()) << single.error();
      ShardedEngine sharded(&data, opt);  // Default num_shards: one shard.
      ASSERT_TRUE(sharded.ok()) << sharded.error();
      ASSERT_EQ(sharded.num_shards(), 1u);
      for (size_t b = 0; b < blocks.size(); ++b) {
        SearchStats single_stats;
        ShardedSearchStats sharded_stats;
        const std::vector<PairMatch> pairs =
            single.Discover(blocks[b], &single_stats);
        if (b == 0) {
          EXPECT_FALSE(pairs.empty()) << cfg.name << ": nothing to compare";
        }
        EXPECT_EQ(pairs, sharded.Discover(blocks[b], &sharded_stats))
            << cfg.name << ": block " << b << " threads=" << threads;
        EXPECT_EQ(single_stats.CountersJson(),
                  sharded_stats.Total().CountersJson())
            << cfg.name << ": block " << b << " threads=" << threads;
      }
    }
  }
}

// An empty indexed collection is still one whole-index shard to SilkMoth:
// every query set runs a pass and is counted. A one-shard ShardedEngine
// instead holds the empty range [0, 0), which the driver skips, so only the
// pair lists are compared here.
TEST(ShardedEngineFunnel, EmptyIndexStillCountsExternalQueries) {
  Collection data = BuildCollection(RawSets{}, TokenizerKind::kWord);
  Collection query;
  const ReferenceBlock block = BuildQueryBlock(
      RawSets{{"alpha beta"}, {"beta gamma", "delta"}, {"epsilon"}},
      TokenizerKind::kWord, 0, data, &query);
  for (int threads : {1, 4}) {
    Options opt;
    opt.num_threads = threads;
    SilkMoth single(&data, opt);
    ASSERT_TRUE(single.ok()) << single.error();
    ShardedEngine sharded(&data, opt);
    ASSERT_TRUE(sharded.ok()) << sharded.error();
    SearchStats stats;
    const std::vector<PairMatch> pairs = single.Discover(block, &stats);
    EXPECT_TRUE(pairs.empty());
    EXPECT_EQ(pairs, sharded.Discover(block));
    EXPECT_EQ(stats.references, query.NumSets()) << "threads=" << threads;
    EXPECT_EQ(stats.query_sets, query.NumSets()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace silkmoth
