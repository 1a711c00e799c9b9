// titles-selfjoin: a batch self-join over DBLP-style titles through
// ShardedEngine::DiscoverSelf (1 shard, 2 worker threads, Eds φ, δ = 0.8,
// α = 0.8, q = 3). The filter layers and the Eds kernel do nearly all of
// the work here and verification almost none.

#include <cmath>
#include <memory>
#include <thread>

#include "bench/workload.h"
#include "core/brute_force.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "replica.h"
#include "workloads.h"

namespace perfbench {

namespace {

using silkmoth::PairMatch;

silkmoth::Options SelfJoinOptions() {
  silkmoth::Options opt;
  opt.metric = silkmoth::Relatedness::kSimilarity;
  opt.phi = silkmoth::SimilarityKind::kEds;
  opt.delta = 0.8;
  opt.alpha = 0.8;
  opt.q = 3;
  opt.num_threads = 2;
  opt.num_shards = 1;
  return opt;
}

/// What one reference's replica pass produced, kept for the
/// per-reference fidelity check.
struct RefOutcome {
  std::vector<silkmoth::SearchMatch> matches;
  std::string funnel;
};

struct ReplicaJoin {
  std::vector<PairMatch> pairs;
  LayerCounters counters;
  std::vector<RefOutcome> per_ref;   ///< Filled only when asked.
  std::vector<SpanBuffer> spans;     ///< One per worker; empty untraced.
  double wall_s = 0.0;
};

/// The self-join through the layer replica, with DiscoverAcrossShards'
/// worker layout: `threads` workers, contiguous equal-count reference
/// slices, one scratch each, unordered-pair dedup, canonical sort.
ReplicaJoin RunReplicaJoin(const silkmoth::ShardedEngine& engine,
                           bool trace, bool keep_per_ref) {
  const silkmoth::Collection& data = engine.data();
  const silkmoth::Options& opt = engine.options();
  const uint32_t n = static_cast<uint32_t>(data.NumSets());
  const int threads = std::max(1, std::min<int>(opt.num_threads,
                                                static_cast<int>(n ? n : 1)));
  const uint32_t chunk = (n + threads - 1) / threads;
  const bool dedup = silkmoth::SelfJoinReportsUnorderedPairs(opt.metric);
  ReplicaJoin out;
  if (trace) out.spans.resize(threads);
  if (keep_per_ref) out.per_ref.resize(n);
  std::vector<std::vector<PairMatch>> partial(threads);
  std::vector<LayerCounters> counters(threads);
  auto work = [&](int t) {
    SpanBuffer* spans = trace ? &out.spans[t] : nullptr;
    silkmoth::QueryScratch scratch;
    const uint32_t begin = std::min(n, t * chunk);
    const uint32_t end = std::min(n, (t + 1) * chunk);
    const int32_t root =
        spans != nullptr ? spans->Open(Layer::kWorker, 0, -1) : -1;
    for (uint32_t r = begin; r < end; ++r) {
      LayerCounters one;
      std::vector<silkmoth::SearchMatch> matches = ReplicaSearchPass(
          data.sets[r], data, engine.shard_index(0), opt, r,
          engine.shard_range(0), 0, &scratch, spans, r, root, &one, nullptr);
      for (const auto& m : matches) {
        if (dedup && m.set_id < r) continue;
        partial[t].push_back(
            PairMatch{r, m.set_id, m.matching_score, m.relatedness});
      }
      counters[t].Merge(one);
      if (keep_per_ref) out.per_ref[r] = {std::move(matches),
                                          Funnel(one.funnel)};
    }
    if (spans != nullptr) spans->Close(root);
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) workers.emplace_back(work, t);
  for (auto& w : workers) w.join();
  out.wall_s = Seconds(t0, Clock::now());
  for (int t = 0; t < threads; ++t) {
    out.pairs.insert(out.pairs.end(), partial[t].begin(), partial[t].end());
    out.counters.Merge(counters[t]);
  }
  std::sort(out.pairs.begin(), out.pairs.end(), silkmoth::PairMatchIdLess);
  return out;
}

/// Untimed oracle check: every sampled reference's related sets, per the
/// brute-force search, must be exactly the pairs the self-join reported
/// for it.
void CheckAgainstBruteForce(const silkmoth::Collection& data,
                            const silkmoth::Options& opt,
                            const std::vector<PairMatch>& pairs,
                            const std::vector<uint32_t>& refs, Report* r) {
  const silkmoth::BruteForce oracle(&data, opt);
  for (uint32_t ref : refs) {
    std::vector<std::pair<uint32_t, double>> want;
    for (const auto& m : oracle.Search(data.sets[ref])) {
      if (m.set_id != ref) want.emplace_back(m.set_id, m.matching_score);
    }
    std::vector<std::pair<uint32_t, double>> got;
    for (const PairMatch& p : pairs) {
      if (p.ref_id == ref) got.emplace_back(p.set_id, p.matching_score);
      if (p.set_id == ref) got.emplace_back(p.ref_id, p.matching_score);
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    bool same = want.size() == got.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = want[i].first == got[i].first &&
             std::fabs(want[i].second - got[i].second) < 1e-9;
    }
    if (!same) {
      r->Fail("titles-selfjoin: reference " + std::to_string(ref) +
              " disagrees with BruteForce::Search (" +
              std::to_string(got.size()) + " vs " +
              std::to_string(want.size()) + " related sets)");
    }
  }
}

}  // namespace

void RunTitlesSelfJoin(const RunConfig& cfg, Report* r) {
  const size_t num_titles = cfg.toy ? 300 : 5000;
  const silkmoth::RawSets raw = silkmoth::bench::GenerateCorpusRaw(
      silkmoth::bench::CorpusKind::kDblpTitles, num_titles, cfg.seed);
  const silkmoth::Options opt = SelfJoinOptions();

  // Set-up: tokenize and build the one-shard index. It runs three times
  // up front and once more after every timed join, on a spare engine.
  std::unique_ptr<silkmoth::Collection> data;
  std::unique_ptr<silkmoth::ShardedEngine> engine;
  Samples tokenize_s;
  Samples index_s;
  auto build = [&](std::unique_ptr<silkmoth::Collection>* d,
                   std::unique_ptr<silkmoth::ShardedEngine>* e) {
    const auto t0 = Clock::now();
    *d = std::make_unique<silkmoth::Collection>(silkmoth::BuildCollection(
        raw, silkmoth::TokenizerKind::kQGram, opt.q));
    const auto t1 = Clock::now();
    *e = std::make_unique<silkmoth::ShardedEngine>(d->get(), opt);
    tokenize_s.Add(Seconds(t0, t1));
    index_s.Add(Seconds(t1, Clock::now()));
  };
  SetupTimer setup(0.0);
  for (int i = 0; i < 3; ++i) {
    engine.reset();
    setup.Run([&] { build(&data, &engine); });
  }
  if (!engine->ok()) {
    r->Fail("titles-selfjoin: engine rejected options: " + engine->error());
    return;
  }

  // Warm-up join: its pair list is the reference every later join, the
  // replica and the oracle are checked against.
  silkmoth::ShardedSearchStats engine_stats;
  const std::vector<PairMatch> pairs = engine->DiscoverSelf(&engine_stats);
  r->Note("titles-selfjoin: " + std::to_string(num_titles) + " titles, " +
          std::to_string(pairs.size()) + " related pairs, digest " +
          std::to_string(Fnv1a(FormatPairs(pairs))));

  if (!cfg.trace) {
    Samples join_ms;
    std::unique_ptr<silkmoth::Collection> spare_data;
    std::unique_ptr<silkmoth::ShardedEngine> spare;
    const auto start = Clock::now();
    while (join_ms.size() < 3 ||
           Seconds(start, Clock::now()) < cfg.seconds) {
      const auto t0 = Clock::now();
      const std::vector<PairMatch> again = engine->DiscoverSelf();
      join_ms.Add(Seconds(t0, Clock::now()) * 1e3);
      ++r->attempted;
      if (again != pairs) {
        ++r->failed;
        r->Fail("titles-selfjoin: a timed join's pair list changed");
      }
      if (setup.Due()) {
        spare.reset();
        setup.Run([&] { build(&spare_data, &spare); });
      }
    }
    // Time spent timing the operations themselves; the spare set-ups
    // between them do not count.
    const double measured = join_ms.Sum() / 1e3;
    // Correctness (untimed): the replica's digest and the oracle sample.
    const ReplicaJoin replica = RunReplicaJoin(*engine, false, false);
    if (replica.pairs != pairs) {
      r->Fail("titles-selfjoin: pair-list digest differs from the "
              "layer replica's");
    }
    CheckAgainstBruteForce(*data, opt, pairs,
                           SampleIds(cfg.seed ^ 0xB0F, cfg.toy ? 3 : 4,
                                     data->NumSets()),
                           r);
    r->E2e("setup_s", setup.Median(), "s");
    r->Note("setup_s: " + std::to_string(setup.size()) +
            " set-ups spread over the run");
    r->E2e("peak_rss_mb", PeakRssMb(), "MiB");
    r->E2e("op_p50_ms", join_ms.Median(), "ms");
    r->E2e("ops_per_s",
           static_cast<double>(join_ms.size() * data->NumSets()) / measured,
           "1/s");
    r->Detail("selfjoin_s", join_ms.Median() / 1e3, "s");
    r->Note("selfjoin_s: " + std::to_string(join_ms.size()) +
            " joins (median only; too few for a tail), min " +
            std::to_string(join_ms.Percentile(0) / 1e3) + " s, max " +
            std::to_string(join_ms.Percentile(100) / 1e3) + " s");
    r->Detail("fail_ratio",
              static_cast<double>(r->failed) /
                  static_cast<double>(r->attempted),
              "ratio");
    return;
  }

  // Traced run: untraced engine wall time first, then the traced replica.
  Samples untraced_s;
  for (int i = 0; i < 2; ++i) {
    const auto t0 = Clock::now();
    engine->DiscoverSelf();
    untraced_s.Add(Seconds(t0, Clock::now()));
  }
  const ReplicaJoin traced = RunReplicaJoin(*engine, true, true);
  r->attempted = data->NumSets();

  // Trace fidelity: whole-join pairs and funnel, then every reference's
  // matches and funnel against RunSearchPass itself.
  if (traced.pairs != pairs) {
    r->Fail("trace fidelity: replica pair list differs from DiscoverSelf");
  }
  if (Funnel(traced.counters.funnel) != Funnel(engine_stats.Total())) {
    r->Fail("trace fidelity: replica funnel differs from DiscoverSelf's: " +
            Funnel(traced.counters.funnel) + " vs " +
            Funnel(engine_stats.Total()));
  }
  silkmoth::QueryScratch scratch;
  for (uint32_t ref = 0; ref < data->NumSets(); ++ref) {
    silkmoth::SearchStats st;
    const auto matches = silkmoth::RunSearchPass(
        data->sets[ref], *data, engine->shard_index(0), opt, ref, &st,
        &scratch, engine->shard_range(0));
    if (matches != traced.per_ref[ref].matches ||
        Funnel(st) != traced.per_ref[ref].funnel) {
      ++r->failed;
      r->Fail("trace fidelity: reference " + std::to_string(ref) +
              " differs from RunSearchPass");
      break;
    }
  }

  // Re-executed matching probes, outside the traced pass.
  MatchingProbe probe;
  for (uint32_t ref = 0; ref < data->NumSets(); ref += 4) {
    LayerCounters unused;
    ReplicaSearchPass(data->sets[ref], *data, engine->shard_index(0), opt,
                      ref, engine->shard_range(0), 0, &scratch, nullptr, 0, -1,
                      &unused, &probe);
  }

  LayerTimes times;
  double worker_sum = 0.0;
  double worker_max = 0.0;
  for (const SpanBuffer& b : traced.spans) {
    times.Add(b);
    for (const Span& s : b.spans()) {
      if (s.layer != Layer::kWorker) continue;
      worker_sum += Seconds(s.start, s.end);
      worker_max = std::max(worker_max, Seconds(s.start, s.end));
    }
  }
  ReportSearchLayers(times, traced.counters, probe, worker_sum, r);
  const double threads = static_cast<double>(traced.spans.size());
  r->Layer("core.parallel_efficiency",
           times.Total(Layer::kCorePass) / (threads * traced.wall_s),
           "ratio");
  r->Layer("core.worker_imbalance", worker_max / (worker_sum / threads),
           "ratio");
  r->Layer("text.tokenize_s", tokenize_s.Median(), "s");
  r->Layer("index.build_s", index_s.Median(), "s");
  r->Layer("index.postings",
           static_cast<double>(engine->shard_index(0).TotalPostings()),
           "count");
  r->Layer("trace.overhead_ratio", traced.wall_s / untraced_s.Median(),
           "ratio");
  std::vector<const SpanBuffer*> bufs;
  for (const SpanBuffer& b : traced.spans) bufs.push_back(&b);
  SaveTrace(cfg, bufs, r);
}

}  // namespace perfbench
