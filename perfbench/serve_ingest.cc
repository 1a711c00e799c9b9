// schema-serve-ingest: an open loop into an in-process serve::ServeEngine
// started from a snapshot saved and mmap-loaded during set-up (2 workers,
// web-table schemas, Jaccard φ, δ = 0.7, α = 0.25). Query frames carry a
// few reference sets drawn zipfian over set ids and go out on a fixed
// seeded schedule at two rates, light and heavy; kIngest frames are
// interleaved at a fixed ratio. A closed-window phase measures the highest
// rate served with no growing backlog. The run repeats short cycles of the
// three phases, so each metric's median samples the whole run.

#include <sys/stat.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench/workload.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/io.h"
#include "replica.h"
#include "serve/server.h"
#include "snapshot/compactor.h"
#include "snapshot/delta_shard.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = silkmoth::serve;

/// Fixed shape of the workload. Rates are frames per second: 0.25 and 0.6
/// of the capacity (about 1330 frames/s) measured on the reference machine
/// (perfbench/README.md), not of each run's own.
struct ServeShape {
  size_t base_sets = 20000;
  size_t refs_per_query = 4;
  size_t ingest_every = 50;     ///< One kIngest frame per this many frames.
  size_t ingest_batch = 8;      ///< Sets per kIngest frame.
  double light_rps = 330.0;
  double heavy_rps = 800.0;
  double phase_s = 0.6;         ///< Length of each open-loop phase.
  size_t capacity_frames = 600; ///< Closed-window frames per cycle.
  size_t window = 4;            ///< Outstanding frames in the capacity phase.
  size_t parity_frames = 16;
};

silkmoth::Options ServeQueryOptions() {
  silkmoth::Options opt;
  opt.metric = silkmoth::Relatedness::kSimilarity;
  opt.phi = silkmoth::SimilarityKind::kJaccard;
  opt.delta = 0.7;
  opt.alpha = 0.25;
  opt.num_threads = 1;
  return opt;
}

/// One planned frame: when it is due (offset from its phase's start) and
/// what it carries.
struct Planned {
  double offset_s = 0.0;
  bool ingest = false;
  silkmoth::RawSets sets;
  std::string body;
};

/// What happened to one submitted frame.
struct Outcome {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point submitted;  ///< Submit() returned (ingest is inline).
  Clock::time_point done;
  serve::FrameType type = serve::FrameType::kError;
  std::string body;             ///< Kept for receipts and parity frames.
};

/// Counts frames awaiting their response.
class Pending {
 public:
  void Add() {
    std::lock_guard<std::mutex> lk(mu_);
    ++n_;
  }
  void Done() {
    std::lock_guard<std::mutex> lk(mu_);
    --n_;
    cv_.notify_all();
  }
  void WaitBelow(size_t limit) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return n_ < limit; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t n_ = 0;
};

std::string Encode(const silkmoth::RawSets& sets) {
  std::ostringstream out;
  silkmoth::WriteRawSets(sets, out);
  return out.str();
}

/// The seeded frame plan of one phase: `count` frames, every
/// `ingest_every`-th an ingest of the next pool sets, the rest queries of
/// zipfian-drawn base sets; due times `1/rate` apart (rate 0: back to back).
std::vector<Planned> PlanPhase(size_t count, double rate,
                               const ServeShape& shape,
                               const silkmoth::RawSets& base,
                               const silkmoth::RawSets& pool,
                               size_t* pool_cursor,
                               const silkmoth::ZipfDistribution& zipf,
                               silkmoth::Rng* rng, size_t* frame_counter) {
  std::vector<Planned> plan(count);
  for (size_t i = 0; i < count; ++i) {
    Planned& p = plan[i];
    p.offset_s = rate > 0.0 ? static_cast<double>(i) / rate : 0.0;
    p.ingest = ++*frame_counter % shape.ingest_every == 0;
    if (p.ingest) {
      for (size_t k = 0; k < shape.ingest_batch; ++k) {
        p.sets.push_back(pool[*pool_cursor % pool.size()]);
        ++*pool_cursor;
      }
    } else {
      for (size_t k = 0; k < shape.refs_per_query; ++k) {
        p.sets.push_back(base[zipf.Sample(rng)]);
      }
    }
    p.body = Encode(p.sets);
  }
  return plan;
}

/// Sends `plan` into the engine and waits for every response. Open loop
/// (window == 0): each frame is submitted at its due time whether or not
/// earlier ones were answered. Closed window: a frame goes as soon as
/// fewer than `window` are outstanding, and is due when sent.
std::vector<Outcome> RunPhase(serve::ServeEngine& engine,
                              const std::vector<Planned>& plan,
                              size_t window, uint64_t* next_id) {
  std::vector<Outcome> out(plan.size());
  Pending pending;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < plan.size(); ++i) {
    Outcome& o = out[i];
    if (window == 0) {
      o.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(plan[i].offset_s));
      std::this_thread::sleep_until(o.due);
    } else {
      pending.WaitBelow(window);
      o.due = Clock::now();
    }
    serve::Frame f;
    f.type = plan[i].ingest ? serve::FrameType::kIngest
                            : serve::FrameType::kQuery;
    f.request_id = (*next_id)++;
    f.body = plan[i].body;
    const bool keep_body = plan[i].ingest;
    pending.Add();
    o.sent = Clock::now();
    engine.Submit(std::move(f), [&o, &pending, keep_body](serve::Frame resp) {
      o.done = Clock::now();
      o.type = resp.type;
      if (keep_body) o.body = std::move(resp.body);
      pending.Done();
    });
    o.submitted = Clock::now();
  }
  pending.WaitBelow(1);
  return out;
}

/// Submits one frame and waits for its response body.
serve::Frame RoundTrip(serve::ServeEngine& engine, serve::Frame f) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  serve::Frame resp;
  engine.Submit(std::move(f), [&](serve::Frame r) {
    std::lock_guard<std::mutex> lk(mu);
    resp = std::move(r);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done; });
  return resp;
}

/// Reads the delta_sets field of a kIngested receipt; -1 when absent.
long ReceiptDeltaSets(const std::string& body) {
  const char* key = "\"delta_sets\":";
  const size_t at = body.find(key);
  if (at == std::string::npos) return -1;
  return std::strtol(body.c_str() + at + std::strlen(key), nullptr, 10);
}

/// The direct lane the serve engine is compared against: a second load of
/// the base snapshot plus a DeltaShard fed the same ingest batches.
struct Replica {
  silkmoth::Snapshot snap;
  std::shared_ptr<silkmoth::DeltaShard> delta;
  Samples ingest_ms;
  SpanBuffer ingest_spans;

  /// Mirrors ServeEngine::HandleIngest: the first batch starts a fresh
  /// delta, later ones clone-and-ingest.
  std::string Ingest(const silkmoth::RawSets& raw, uint32_t trace_id) {
    std::string err;
    const auto t0 = Clock::now();
    if (delta == nullptr) {
      auto fresh = std::make_shared<silkmoth::DeltaShard>(
          &snap.data, snap.tokenizer, 0);
      err = fresh->Ingest(raw);
      delta = std::move(fresh);
    } else {
      auto next = delta->WithIngested(raw, &err);
      if (next != nullptr) delta = std::move(next);
    }
    const auto t1 = Clock::now();
    ingest_ms.Add(Seconds(t0, t1) * 1e3);
    ingest_spans.Add(Layer::kDeltaIngest, trace_id, t0, t1);
    return err;
  }
  const silkmoth::Collection& corpus() const {
    return delta != nullptr ? delta->combined() : snap.data;
  }
  std::vector<silkmoth::ShardView> Views() const {
    std::vector<silkmoth::ShardView> v;
    for (const auto& s : snap.shards) v.push_back({s.range, &s.index});
    if (delta != nullptr && delta->delta_sets() > 0) {
      v.push_back(delta->View());
    }
    return v;
  }
  /// Direct DiscoverAcrossShards of a payload, in kResult body format.
  std::string Answer(const silkmoth::RawSets& raw,
                     const silkmoth::Options& opt) {
    silkmoth::Collection query;
    const silkmoth::ReferenceBlock block = silkmoth::BuildQueryBlock(
        raw, snap.tokenizer, 0, corpus(), &query);
    const std::vector<silkmoth::ShardView> views = Views();
    return FormatPairs(silkmoth::DiscoverAcrossShards(block, corpus(), views,
                                                      opt, nullptr));
  }
};

double FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                        : 0.0;
}

/// Per-step times of the set-ups.
struct SetupTimes {
  Samples tokenize_s, build_s, save_s, load_s;
  double snapshot_bytes = 0.0;
};

/// One set-up: tokenize the base schemas, build a one-shard snapshot, save
/// it to `path`, mmap-load it and start a 2-worker engine on it. On failure
/// `*err` says why.
std::unique_ptr<serve::ServeEngine> SetUp(const silkmoth::RawSets& base,
                                          const std::string& path,
                                          const silkmoth::Options& opt,
                                          SetupTimes* t, std::string* err) {
  const auto t0 = Clock::now();
  silkmoth::Collection data =
      silkmoth::BuildCollection(base, silkmoth::TokenizerKind::kWord);
  const auto t1 = Clock::now();
  silkmoth::Snapshot snap = silkmoth::BuildSnapshot(
      std::move(data), silkmoth::TokenizerKind::kWord, 0, 1, 2);
  const auto t2 = Clock::now();
  *err = silkmoth::SaveSnapshot(snap, path);
  const auto t3 = Clock::now();
  silkmoth::Snapshot loaded;
  if (err->empty()) *err = silkmoth::LoadSnapshot(path, &loaded);
  const auto t4 = Clock::now();
  serve::ServeOptions so;
  so.snapshot_path = path;
  so.query = opt;
  so.workers = 2;
  so.max_queue = 1 << 20;
  so.max_inflight_bytes = size_t{1} << 32;
  auto engine = std::make_unique<serve::ServeEngine>(so);
  if (err->empty()) *err = engine->StartWith(std::move(loaded));
  t->tokenize_s.Add(Seconds(t0, t1));
  t->build_s.Add(Seconds(t1, t2));
  t->save_s.Add(Seconds(t2, t3));
  t->load_s.Add(Seconds(t3, t4));
  t->snapshot_bytes = FileBytes(path);
  return engine;
}

enum class Phase { kLight, kHeavy, kCapacity };

/// One phase of one cycle, as planned and as it went.
struct PhaseRun {
  Phase phase = Phase::kLight;
  std::vector<Planned> plan;
  std::vector<Outcome> out;
  double seconds = 0.0;
};

/// A light-rate query frame awaiting its direct replay, with the span of
/// its frame.
struct ReplayItem {
  const Planned* planned;
  const Outcome* outcome;
  int32_t frame_span;
  uint32_t frame_id;
};

}  // namespace

void RunSchemaServeIngest(const RunConfig& cfg, Report* r) {
  ServeShape shape;
  if (cfg.toy) {
    shape.base_sets = 1500;
    shape.light_rps = 100.0;
    shape.heavy_rps = 300.0;
    shape.ingest_every = 10;
    shape.phase_s = 0.3;
    shape.capacity_frames = 100;
  }
  if (cfg.work_dir.empty()) {
    r->Fail("schema-serve-ingest needs --work-dir for its snapshot");
    return;
  }
  const size_t pool_sets = 4000;
  const silkmoth::RawSets all = silkmoth::bench::GenerateCorpusRaw(
      silkmoth::bench::CorpusKind::kSchemaSets, shape.base_sets + pool_sets,
      cfg.seed);
  const silkmoth::RawSets base(all.begin(), all.begin() + shape.base_sets);
  const silkmoth::RawSets pool(all.begin() + shape.base_sets, all.end());
  const silkmoth::Options opt = ServeQueryOptions();
  const std::string snap_path = cfg.work_dir + "/schemas.snap";
  const std::string spare_path = cfg.work_dir + "/spare.snap";

  // Set-up three times up front; the last engine serves the run. Spare
  // set-ups, each started and stopped, follow every two seconds.
  std::unique_ptr<serve::ServeEngine> engine;
  SetupTimes st;
  SetupTimer setup(2.0);
  std::string err;
  for (int i = 0; i < 3 && err.empty(); ++i) {
    engine.reset();
    setup.Run([&] { engine = SetUp(base, snap_path, opt, &st, &err); });
  }
  if (!err.empty()) {
    r->Fail("schema-serve-ingest set-up: " + err);
    return;
  }

  // The replica loads the same file before anything can replace it.
  Replica replica;
  if (const std::string e = silkmoth::LoadSnapshot(snap_path, &replica.snap);
      !e.empty()) {
    r->Fail("schema-serve-ingest replica load: " + e);
    return;
  }

  // The parity batch comes from a stream of its own, so it does not
  // depend on how many cycles the run fits in.
  const silkmoth::ZipfDistribution zipf(shape.base_sets, 0.99);
  size_t pool_cursor = 0;
  size_t parity_counter = 0;
  silkmoth::Rng parity_rng(cfg.seed ^ 0x9A217);
  const std::vector<Planned> parity = PlanPhase(
      shape.parity_frames, 0.0, ServeShape{.ingest_every = size_t(-1)}, base,
      pool, &pool_cursor, zipf, &parity_rng, &parity_counter);

  // Timed cycles of light, heavy and capacity phases, each planned from
  // the seeded stream as it comes, so one seed always sends the same frames.
  silkmoth::Rng rng(cfg.seed ^ 0x5E27E);
  size_t frame_counter = 0;
  uint64_t next_id = 1;
  std::vector<PhaseRun> runs;
  size_t cycles = 0;
  const auto start = Clock::now();
  while (cycles < 3 || Seconds(start, Clock::now()) < cfg.seconds) {
    for (Phase phase : {Phase::kLight, Phase::kHeavy, Phase::kCapacity}) {
      PhaseRun pr;
      pr.phase = phase;
      const double rate = phase == Phase::kLight   ? shape.light_rps
                          : phase == Phase::kHeavy ? shape.heavy_rps
                                                   : 0.0;
      const size_t count = rate > 0.0
                               ? static_cast<size_t>(shape.phase_s * rate)
                               : shape.capacity_frames;
      pr.plan = PlanPhase(count, rate, shape, base, pool, &pool_cursor, zipf,
                          &rng, &frame_counter);
      const auto p0 = Clock::now();
      pr.out = RunPhase(*engine, pr.plan,
                        phase == Phase::kCapacity ? shape.window : 0,
                        &next_id);
      pr.seconds = Seconds(p0, Clock::now());
      runs.push_back(std::move(pr));
    }
    ++cycles;
    if (setup.Due()) {
      std::unique_ptr<serve::ServeEngine> spare;
      setup.Run([&] { spare = SetUp(base, spare_path, opt, &st, &err); });
      spare->Stop();
      if (!err.empty()) r->Fail("schema-serve-ingest spare set-up: " + err);
    }
  }
  // Walk every timed frame in submission order: tally it, check ingest
  // receipts, and replay ingests on the replica. A traced run also records
  // frame spans and replays each light-rate query payload directly on the
  // replica state the engine had when the frame was sent: the payloads
  // since the last ingest are replayed just before the replica applies the
  // next one.
  Samples light_ms, heavy_ms, ingest_ms, lag_ms, stall_ms, capacity_rps;
  long expect_delta = 0;
  size_t queries = 0;
  uint32_t ingest_no = 0;
  SpanBuffer frame_spans;
  SpanBuffer replay;
  LayerCounters counters;
  Samples exec_ms, tokenize_ms;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double light_frame_s = 0.0;
  double light_covered_s = 0.0;
  uint32_t frame_no = 0;
  uint32_t payload_no = 0;
  std::vector<ReplayItem> segment;

  auto flush_replays = [&] {
    if (segment.empty()) return;
    const std::vector<silkmoth::ShardView> views = replica.Views();
    // Untraced first, BuildQueryBlock and DiscoverAcrossShards timed apart.
    std::vector<std::vector<silkmoth::PairMatch>> direct(segment.size());
    const auto u0 = Clock::now();
    for (size_t k = 0; k < segment.size(); ++k) {
      const ReplayItem& it = segment[k];
      silkmoth::Collection query;
      const auto t0 = Clock::now();
      const silkmoth::ReferenceBlock block = silkmoth::BuildQueryBlock(
          it.planned->sets, replica.snap.tokenizer, 0, replica.corpus(),
          &query);
      const auto t1 = Clock::now();
      direct[k] = silkmoth::DiscoverAcrossShards(block, replica.corpus(),
                                                 views, opt, nullptr);
      const auto t2 = Clock::now();
      tokenize_ms.Add(Seconds(t0, t1) * 1e3);
      exec_ms.Add(Seconds(t1, t2) * 1e3);
      // The frame's measured parts: execution ends at the response, and
      // tokenization comes just before it; neither reaches back past the
      // end of Submit().
      const Outcome& o = *it.outcome;
      const Clock::time_point exec_start =
          std::max(o.submitted, o.done - (t2 - t1));
      const Clock::time_point tok_start =
          std::max(o.submitted, exec_start - (t1 - t0));
      frame_spans.Add(Layer::kQueryTokenize, it.frame_id, tok_start,
                      exec_start, it.frame_span);
      frame_spans.Add(Layer::kExec, it.frame_id, exec_start, o.done,
                      it.frame_span);
      light_covered_s += Seconds(tok_start, o.done);
    }
    untraced_s += Seconds(u0, Clock::now());
    // Then the traced layer replica of the same payloads.
    const auto t3 = Clock::now();
    for (size_t k = 0; k < segment.size(); ++k) {
      const uint32_t id = payload_no++;
      const int32_t root = replay.Open(Layer::kWorker, id, -1);
      const int32_t tok = replay.Open(Layer::kQueryTokenize, id, root);
      silkmoth::Collection query;
      silkmoth::BuildQueryBlock(segment[k].planned->sets,
                                replica.snap.tokenizer, 0, replica.corpus(),
                                &query);
      replay.Close(tok);
      std::vector<silkmoth::PairMatch> pairs;
      // A fresh scratch per (payload, shard), as DiscoverAcrossShards makes.
      std::vector<silkmoth::QueryScratch> scratch(views.size());
      for (uint32_t ref = 0; ref < query.NumSets(); ++ref) {
        for (size_t v = 0; v < views.size(); ++v) {
          if (views[v].range.begin == views[v].range.end) continue;
          for (const auto& m : ReplicaSearchPass(
                   query.sets[ref], replica.corpus(), *views[v].index, opt,
                   silkmoth::kNoExclude, views[v].range, 0, &scratch[v],
                   &replay, id, root, &counters, nullptr)) {
            pairs.push_back({ref, m.set_id, m.matching_score, m.relatedness});
          }
        }
      }
      replay.Close(root);
      std::sort(pairs.begin(), pairs.end(), silkmoth::PairMatchIdLess);
      if (pairs != direct[k]) {
        r->Fail("trace fidelity: payload " + std::to_string(id) +
                " differs from DiscoverAcrossShards");
      }
    }
    traced_s += Seconds(t3, Clock::now());
    segment.clear();
  };

  for (const PhaseRun& pr : runs) {
    const bool open_loop = pr.phase != Phase::kCapacity;
    if (!open_loop) {
      capacity_rps.Add(static_cast<double>(pr.plan.size()) / pr.seconds);
    }
    for (size_t i = 0; i < pr.plan.size(); ++i) {
      const Planned& p = pr.plan[i];
      const Outcome& o = pr.out[i];
      ++r->attempted;
      const double ms = Seconds(o.due, o.done) * 1e3;
      int32_t frame_span = -1;
      uint32_t frame_id = 0;
      if (open_loop) {
        lag_ms.Add(Seconds(o.due, o.sent) * 1e3);
        if (cfg.trace) {
          frame_id = frame_no++;
          frame_span =
              frame_spans.Add(Layer::kServeFrame, frame_id, o.due, o.done);
          frame_spans.Add(Layer::kGenLag, frame_id, o.due, o.sent,
                          frame_span);
          frame_spans.Add(Layer::kAdmit, frame_id, o.sent, o.submitted,
                          frame_span);
        }
      }
      if (p.ingest) {
        ingest_ms.Add(ms);
        stall_ms.Add(Seconds(o.sent, o.submitted) * 1e3);
        expect_delta += static_cast<long>(p.sets.size());
        const long got = ReceiptDeltaSets(o.body);
        if (o.type != serve::FrameType::kIngested || got != expect_delta) {
          ++r->failed;
          r->Fail("schema-serve-ingest: ingest receipt delta_sets " +
                  std::to_string(got) + ", expected " +
                  std::to_string(expect_delta));
        }
        if (cfg.trace) flush_replays();
        const std::string e = replica.Ingest(p.sets, ingest_no++);
        if (!e.empty()) r->Fail("replica ingest: " + e);
        continue;
      }
      ++queries;
      if (pr.phase == Phase::kLight) light_ms.Add(ms);
      if (pr.phase == Phase::kHeavy) heavy_ms.Add(ms);
      if (o.type != serve::FrameType::kResult) {
        ++r->failed;
        if (r->failed <= 3) {
          r->Fail(std::string("schema-serve-ingest: query answered ") +
                  serve::FrameTypeName(o.type));
        }
      }
      if (cfg.trace && pr.phase == Phase::kLight) {
        light_frame_s += Seconds(o.due, o.done);
        light_covered_s +=
            Seconds(o.due, o.sent) + Seconds(o.sent, o.submitted);
        segment.push_back({&p, &o, frame_span, frame_id});
      }
    }
  }
  flush_replays();
  const double capacity = capacity_rps.Median();

  // Parity: a fixed batch through Submit() must be byte-identical to the
  // replica's direct DiscoverAcrossShards over base + delta.
  std::vector<std::string> served(parity.size());
  auto run_parity = [&](std::vector<std::string>* bodies) {
    for (size_t i = 0; i < parity.size(); ++i) {
      serve::Frame f;
      f.type = serve::FrameType::kQuery;
      f.request_id = next_id++;
      f.body = parity[i].body;
      serve::Frame resp = RoundTrip(*engine, std::move(f));
      if (resp.type != serve::FrameType::kResult) {
        r->Fail(std::string("parity frame answered ") +
                serve::FrameTypeName(resp.type));
      }
      (*bodies)[i] = std::move(resp.body);
    }
  };
  run_parity(&served);
  size_t parity_pairs = 0;
  for (size_t i = 0; i < parity.size(); ++i) {
    const std::string direct = replica.Answer(parity[i].sets, opt);
    parity_pairs += static_cast<size_t>(
        std::count(direct.begin(), direct.end(), '\n'));
    if (direct != served[i]) {
      r->Fail("schema-serve-ingest: parity frame " + std::to_string(i) +
              " differs from direct DiscoverAcrossShards over base + delta");
    }
  }
  char load[64];
  std::snprintf(load, sizeof(load), "%.0f frames/s (heavy rate %.0f = %.2f)",
                capacity, shape.heavy_rps, shape.heavy_rps / capacity);
  r->Note("schema-serve-ingest: " + std::to_string(shape.base_sets) +
          " base schemas, " + std::to_string(cycles) + " cycles, " +
          std::to_string(queries) + " query frames, " +
          std::to_string(ingest_no) + " ingests, " +
          std::to_string(replica.delta ? replica.delta->delta_sets() : 0) +
          " delta sets; capacity " + load + "; parity batch " +
          std::to_string(parity.size()) + " frames, " +
          std::to_string(parity_pairs) + " pairs");

  if (!cfg.trace) {
    engine->Stop();
    r->E2e("setup_s", setup.Median(), "s");
    r->Note("setup_s: " + std::to_string(setup.size()) +
            " set-ups spread over the run");
    r->E2e("peak_rss_mb", PeakRssMb(), "MiB");
    r->E2e("op_p50_ms", light_ms.Median(), "ms");
    r->E2e("ops_per_s", capacity, "1/s");
    r->Distribution("serve_ms.light", light_ms, "ms");
    r->Distribution("serve_ms.heavy", heavy_ms, "ms");
    r->Detail("serve_max_rps", capacity, "1/s");
    r->Detail("serve_heavy_load", shape.heavy_rps / capacity, "ratio");
    r->Distribution("ingest_ms", ingest_ms, "ms");
    r->Distribution("gen_lag_ms", lag_ms, "ms");
    r->Detail("fail_ratio",
              static_cast<double>(r->failed) /
                  static_cast<double>(r->attempted),
              "ratio");
    return;
  }

  // ---- Traced run: background-work probe ----------------------------------
  // Compact base + delta over the engine's snapshot path, then hot-swap to
  // it under light load; the parity batch must answer byte-identically
  // before and after.
  double compact_s = 0.0;
  double compact_bytes = 0.0;
  double swap_ms = 0.0;
  if (replica.delta != nullptr) {
    silkmoth::CompactOptions co;
    co.num_shards = 1;
    co.num_threads = 2;
    const auto c0 = Clock::now();
    const std::string e = silkmoth::CompactSnapshot(
        replica.snap, *replica.delta, snap_path, co);
    compact_s = Seconds(c0, Clock::now());
    compact_bytes = FileBytes(snap_path);
    if (!e.empty()) r->Fail("compaction: " + e);
  }
  {
    ServeShape q = shape;
    q.ingest_every = size_t(-1);
    const std::vector<Planned> swap_load = PlanPhase(
        static_cast<size_t>(shape.light_rps * 0.5), shape.light_rps, q, base,
        pool, &pool_cursor, zipf, &rng, &frame_counter);
    std::string swap_err;
    std::thread swapper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const auto s0 = Clock::now();
      swap_err = engine->Swap();
      swap_ms = Seconds(s0, Clock::now()) * 1e3;
    });
    const std::vector<Outcome> swap_out =
        RunPhase(*engine, swap_load, 0, &next_id);
    swapper.join();
    if (!swap_err.empty()) r->Fail("swap: " + swap_err);
    for (const Outcome& o : swap_out) {
      if (o.type != serve::FrameType::kResult) {
        r->Fail("a query during the swap was not served");
        break;
      }
    }
    std::vector<std::string> after(parity.size());
    run_parity(&after);
    if (after != served) {
      r->Fail("schema-serve-ingest: parity batch changed across the "
              "compaction swap");
    }
  }
  const serve::ServeCounters& sc = engine->counters();
  const double admitted = static_cast<double>(sc.requests_admitted.load());
  const double shed = static_cast<double>(sc.requests_shed.load());
  const double deadline = static_cast<double>(sc.deadline_exceeded.load());
  const double faults = static_cast<double>(sc.worker_faults.load());
  if (sc.compactions.load() != 1 && replica.delta != nullptr) {
    r->Fail("the swap did not count as a compaction");
  }
  engine->Stop();

  LayerTimes times;
  times.Add(replay);
  ReportSearchLayers(times, counters, MatchingProbe{},
                     times.Total(Layer::kWorker), r);
  const double exec_p50 = exec_ms.Median();
  r->Layer("text.tokenize_s", st.tokenize_s.Median(), "s");
  r->Layer("text.query_tokenize_ms", tokenize_ms.Median(), "ms");
  r->Layer("snapshot.build_s", st.build_s.Median(), "s");
  // BuildSnapshot is where this workload's index is built.
  r->Layer("index.build_s", st.build_s.Median(), "s");
  r->Layer("index.postings",
           static_cast<double>(replica.snap.shards[0].index.TotalPostings()),
           "count");
  r->Layer("snapshot.save_s", st.save_s.Median(), "s");
  r->Layer("snapshot.load_s", st.load_s.Median(), "s");
  r->Layer("snapshot.bytes", st.snapshot_bytes, "B");
  r->Layer("snapshot.delta.ingest_ms", replica.ingest_ms.Median(), "ms");
  r->Layer("snapshot.delta.sets",
           static_cast<double>(replica.delta ? replica.delta->delta_sets()
                                             : 0),
           "count");
  r->Layer("snapshot.compact_s", compact_s, "s");
  r->Layer("snapshot.compact_bytes", compact_bytes, "B");
  r->Layer("serve.exec_ms", exec_p50, "ms");
  r->Layer("serve.overhead_ms", light_ms.Median() - exec_p50, "ms");
  r->Layer("serve.queue_wait_ms", heavy_ms.Median() - exec_p50, "ms");
  r->Layer("serve.frame_coverage",
           light_frame_s > 0.0 ? light_covered_s / light_frame_s : 0.0,
           "ratio");
  r->Layer("serve.heavy_load", shape.heavy_rps / capacity, "ratio");
  r->Layer("serve.ingest_stall_ms", stall_ms.Median(), "ms");
  r->Layer("serve.swap_stall_ms", swap_ms, "ms");
  r->Layer("serve.gen_lag_ms", lag_ms.Percentile(lag_ms.TailPercentile()),
           "ms");
  r->Layer("serve.admitted", admitted, "count");
  r->Layer("serve.shed", shed, "count");
  r->Layer("serve.deadline_exceeded", deadline, "count");
  r->Layer("serve.worker_faults", faults, "count");
  r->Layer("trace.overhead_ratio", traced_s / untraced_s, "ratio");
  SaveTrace(cfg, {&frame_spans, &replay, &replica.ingest_spans}, r);
}

}  // namespace perfbench
