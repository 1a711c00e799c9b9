// columns-topk: a closed loop with one client sending top-4 containment
// queries, drawn uniformly from a web-table column corpus, through
// SilkMoth::SearchTopK (Jaccard φ, δ = 0.05, α = 0, NN filter on).
// Verification takes most of the time here and Eds is never called.

#include <cmath>
#include <memory>

#include "bench/workload.h"
#include "core/brute_force.h"
#include "datagen/builders.h"
#include "replica.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kTopK = 4;

silkmoth::Options TopKOptions() {
  silkmoth::Options opt;
  opt.metric = silkmoth::Relatedness::kContainment;
  opt.phi = silkmoth::SimilarityKind::kJaccard;
  opt.delta = 0.05;
  opt.alpha = 0.0;
  opt.nn_filter = true;
  return opt;
}

/// The oracle's top k: the full brute-force result ranked by (relatedness
/// desc, id asc), cut to k.
std::vector<silkmoth::SearchMatch> OracleTopK(
    std::vector<silkmoth::SearchMatch> all) {
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.relatedness != b.relatedness) return a.relatedness > b.relatedness;
    return a.set_id < b.set_id;
  });
  if (all.size() > kTopK) all.resize(kTopK);
  return all;
}

bool SameRanking(const std::vector<silkmoth::SearchMatch>& a,
                 const std::vector<silkmoth::SearchMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].set_id != b[i].set_id ||
        std::fabs(a[i].relatedness - b[i].relatedness) > 1e-9) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunColumnsTopK(const RunConfig& cfg, Report* r) {
  const size_t num_columns = cfg.toy ? 300 : 5000;
  const size_t num_queries = cfg.toy ? 60 : 1000;
  const silkmoth::RawSets raw = silkmoth::bench::GenerateCorpusRaw(
      silkmoth::bench::CorpusKind::kColumnSets, num_columns, cfg.seed);
  const silkmoth::Options opt = TopKOptions();

  // Set-up: tokenize and build the index. It runs three times up front
  // and then, on a spare engine, every half second of the timed loop.
  std::unique_ptr<silkmoth::Collection> data;
  std::unique_ptr<silkmoth::SilkMoth> engine;
  Samples tokenize_s;
  Samples index_s;
  auto build = [&](std::unique_ptr<silkmoth::Collection>* d,
                   std::unique_ptr<silkmoth::SilkMoth>* e) {
    const auto t0 = Clock::now();
    *d = std::make_unique<silkmoth::Collection>(
        silkmoth::BuildCollection(raw, silkmoth::TokenizerKind::kWord));
    const auto t1 = Clock::now();
    *e = std::make_unique<silkmoth::SilkMoth>(d->get(), opt);
    tokenize_s.Add(Seconds(t0, t1));
    index_s.Add(Seconds(t1, Clock::now()));
  };
  SetupTimer setup(0.5);
  for (int i = 0; i < 3; ++i) {
    engine.reset();
    setup.Run([&] { build(&data, &engine); });
  }
  if (!engine->ok()) {
    r->Fail("columns-topk: engine rejected options: " + engine->error());
    return;
  }
  const std::vector<uint32_t> queries =
      SampleIds(cfg.seed ^ 0x70F4, num_queries, data->NumSets());

  std::vector<std::vector<silkmoth::SearchMatch>> answers(queries.size());

  if (!cfg.trace) {
    // Warm-up, untimed, then the timed closed loop. A query's first answer
    // is the reference its later repetitions and the oracle checks use.
    for (size_t i = 0; i < std::min<size_t>(50, queries.size()); ++i) {
      engine->SearchTopK(data->sets[queries[i]], kTopK);
    }
    Samples query_ms;
    std::unique_ptr<silkmoth::Collection> spare_data;
    std::unique_ptr<silkmoth::SilkMoth> spare;
    size_t i = 0;
    const auto start = Clock::now();
    while (query_ms.size() < queries.size() ||
           Seconds(start, Clock::now()) < cfg.seconds) {
      const size_t q = i++ % queries.size();
      const auto t0 = Clock::now();
      const auto got = engine->SearchTopK(data->sets[queries[q]], kTopK);
      query_ms.Add(Seconds(t0, Clock::now()) * 1e3);
      ++r->attempted;
      if (i <= queries.size()) {
        answers[q] = got;
      } else if (got != answers[q]) {
        ++r->failed;
        r->Fail("columns-topk: a timed query's top-k changed");
      }
      if (setup.Due()) {
        spare.reset();
        setup.Run([&] { build(&spare_data, &spare); });
      }
    }
    // Time spent timing the operations themselves; the spare set-ups
    // between them do not count.
    const double measured = query_ms.Sum() / 1e3;
    // Correctness (untimed): sampled queries against the brute-force
    // oracle, and more against the engine's own full search.
    const silkmoth::BruteForce oracle(data.get(), opt);
    for (uint32_t s : SampleIds(cfg.seed ^ 0x0AC1, cfg.toy ? 3 : 6,
                                queries.size())) {
      const auto want =
          OracleTopK(oracle.Search(data->sets[queries[s]]));
      if (!SameRanking(answers[s], want)) {
        r->Fail("columns-topk: query " + std::to_string(s) +
                " top-k differs from the brute-force oracle");
      }
    }
    for (uint32_t s : SampleIds(cfg.seed ^ 0x5EA, 50, queries.size())) {
      const auto want = OracleTopK(engine->Search(data->sets[queries[s]]));
      if (!SameRanking(answers[s], want)) {
        r->Fail("columns-topk: query " + std::to_string(s) +
                " top-k differs from the full search ranked");
      }
    }
    // The layer replica re-derives the pass from the layer functions; its
    // top-k must match the engine's on every one of the first 200 queries.
    silkmoth::QueryScratch scratch;
    for (size_t q = 0; q < std::min<size_t>(200, queries.size()); ++q) {
      LayerCounters unused;
      const auto want = ReplicaSearchPass(
          data->sets[queries[q]], *data, engine->index(), opt,
          silkmoth::kNoExclude, silkmoth::SetIdRange{}, kTopK, &scratch,
          nullptr, 0, -1, &unused, nullptr);
      if (want != answers[q]) {
        r->Fail("columns-topk: query " + std::to_string(q) +
                " top-k differs from the layer replica's");
        break;
      }
    }
    r->E2e("setup_s", setup.Median(), "s");
    r->Note("setup_s: " + std::to_string(setup.size()) +
            " set-ups spread over the run");
    r->E2e("peak_rss_mb", PeakRssMb(), "MiB");
    r->E2e("op_p50_ms", query_ms.Median(), "ms");
    r->E2e("ops_per_s", static_cast<double>(query_ms.size()) / measured,
           "1/s");
    r->Distribution("query_ms", query_ms, "ms");
    r->Detail("query_rps", static_cast<double>(query_ms.size()) / measured,
              "1/s");
    r->Detail("fail_ratio",
              static_cast<double>(r->failed) /
                  static_cast<double>(r->attempted),
              "ratio");
    return;
  }

  // Traced run: every query's answer and funnel from SearchTopK, an
  // untraced timing pass, then the replica over the same list.
  std::vector<std::string> funnels(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    silkmoth::SearchStats st;
    answers[i] = engine->SearchTopK(data->sets[queries[i]], kTopK, &st);
    funnels[i] = Funnel(st);
  }
  const auto untraced_start = Clock::now();
  for (uint32_t q : queries) engine->SearchTopK(data->sets[q], kTopK);
  const double untraced_s = Seconds(untraced_start, Clock::now());
  SpanBuffer spans;
  LayerCounters counters;
  silkmoth::QueryScratch scratch;
  const auto t0 = Clock::now();
  const int32_t root = spans.Open(Layer::kWorker, 0, -1);
  std::vector<std::vector<silkmoth::SearchMatch>> traced(queries.size());
  std::vector<std::string> traced_funnels(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    LayerCounters one;
    traced[i] = ReplicaSearchPass(
        data->sets[queries[i]], *data, engine->index(), opt,
        silkmoth::kNoExclude, silkmoth::SetIdRange{}, kTopK, &scratch,
        &spans, static_cast<uint32_t>(i), root, &one, nullptr);
    traced_funnels[i] = Funnel(one.funnel);
    counters.Merge(one);
  }
  spans.Close(root);
  const double traced_s = Seconds(t0, Clock::now());
  r->attempted = queries.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (traced[i] != answers[i] || traced_funnels[i] != funnels[i]) {
      ++r->failed;
      r->Fail("trace fidelity: query " + std::to_string(i) +
              " differs from SearchTopK (results or funnel)");
      break;
    }
  }
  // Re-executed matching probes, outside the traced pass.
  MatchingProbe probe;
  probe.every = 4;
  for (size_t i = 0; i < std::min<size_t>(queries.size(), 200); ++i) {
    LayerCounters unused;
    ReplicaSearchPass(data->sets[queries[i]], *data, engine->index(), opt,
                      silkmoth::kNoExclude, silkmoth::SetIdRange{}, kTopK,
                      &scratch, nullptr, 0, -1, &unused, &probe);
  }
  LayerTimes times;
  times.Add(spans);
  ReportSearchLayers(times, counters, probe, times.Total(Layer::kWorker), r);
  r->Layer("core.parallel_efficiency",
           times.Total(Layer::kCorePass) / traced_s, "ratio");
  r->Layer("core.worker_imbalance", 1.0, "ratio");
  r->Layer("text.tokenize_s", tokenize_s.Median(), "s");
  r->Layer("index.build_s", index_s.Median(), "s");
  r->Layer("index.postings",
           static_cast<double>(engine->index().TotalPostings()), "count");
  r->Layer("trace.overhead_ratio", traced_s / untraced_s, "ratio");
  SaveTrace(cfg, {&spans}, r);
}

}  // namespace perfbench
