// The repository benchmark's binary. One invocation runs one
// workload for a fixed time and prints, as its last line, one JSON object:
//
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) the per-layer metrics. perfbench/run.py builds this binary
// and is the command to use; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Every per-layer metric, in report order. A traced run reports all of
/// them on every workload; a layer the workload's path does not cross
/// reads 0 (perfbench/README.md lists which apply where).
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kAll = {
      {"text.tokenize_s", "s"},
      {"text.query_tokenize_ms", "ms"},
      {"index.build_s", "s"},
      {"index.postings", "count"},
      {"sig.busy_s", "s"},
      {"sig.share", "ratio"},
      {"sig.probe_tokens", "count"},
      {"filter.check.busy_s", "s"},
      {"filter.check.share", "ratio"},
      {"filter.check.postings_scanned", "count"},
      {"filter.check.phi_calls", "count"},
      {"filter.check.touched", "count"},
      {"filter.check.check_filtered", "count"},
      {"filter.check.size_pruned_ratio", "ratio"},
      {"filter.check.pass_ratio", "ratio"},
      {"filter.nn.busy_s", "s"},
      {"filter.nn.share", "ratio"},
      {"filter.nn.searches", "count"},
      {"filter.nn.phi_calls", "count"},
      {"filter.nn.early_terminations", "count"},
      {"filter.nn.pass_ratio", "ratio"},
      {"matching.busy_s", "s"},
      {"matching.share", "ratio"},
      {"matching.verifications", "count"},
      {"matching.phi_calls", "count"},
      {"matching.exact_solves", "count"},
      {"matching.reporting_solves", "count"},
      {"matching.floor_rejects", "count"},
      {"matching.accept_ratio", "ratio"},
      {"matching.fill_us", "us"},
      {"matching.local_max_us", "us"},
      {"matching.hungarian_us", "us"},
      {"core.pass_s", "s"},
      {"core.layer_coverage", "ratio"},
      {"core.parallel_efficiency", "ratio"},
      {"core.worker_imbalance", "ratio"},
      {"snapshot.build_s", "s"},
      {"snapshot.save_s", "s"},
      {"snapshot.load_s", "s"},
      {"snapshot.bytes", "B"},
      {"snapshot.delta.ingest_ms", "ms"},
      {"snapshot.delta.sets", "count"},
      {"snapshot.compact_s", "s"},
      {"snapshot.compact_bytes", "B"},
      {"serve.exec_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.frame_coverage", "ratio"},
      {"serve.heavy_load", "ratio"},
      {"serve.ingest_stall_ms", "ms"},
      {"serve.swap_stall_ms", "ms"},
      {"serve.gen_lag_ms", "ms"},
      {"serve.admitted", "count"},
      {"serve.shed", "count"},
      {"serve.deadline_exceeded", "count"},
      {"serve.worker_faults", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kAll;
}

/// The contract's end-to-end metrics, in report order.
const std::vector<std::pair<const char*, const char*>>& E2eMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kAll = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"op_p50_ms", "ms"},
      {"ops_per_s", "1/s"},
  };
  return kAll;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Orders `got` by the canonical table; a metric the table lacks, a unit
/// that disagrees, or (for end-to-end metrics) a missing one is an error.
std::vector<Metric> Canonical(
    const std::vector<Metric>& got,
    const std::vector<std::pair<const char*, const char*>>& table,
    bool missing_is_zero, Report* r) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : got) {
    bool known = false;
    for (const auto& [name, unit] : table) {
      if (m.name == name) {
        known = true;
        if (m.unit != unit) r->Fail("metric " + m.name + " has unit " + m.unit);
      }
    }
    if (!known) r->Fail("metric " + m.name + " is not in the metric table");
    by_name[m.name] = m;
  }
  std::vector<Metric> out;
  for (const auto& [name, unit] : table) {
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      out.push_back(it->second);
    } else {
      if (!missing_is_zero) r->Fail(std::string("metric ") + name + " missing");
      out.push_back({name, 0.0, unit});
    }
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--toy] [--work-dir DIR] [--trace-path FILE]\n"
               "workloads: titles-selfjoin columns-topk schema-serve-ingest\n");
  return 2;
}

}  // namespace

std::string FormatPairs(const std::vector<silkmoth::PairMatch>& pairs) {
  std::string out;
  char buf[96];
  for (const auto& p : pairs) {
    std::snprintf(buf, sizeof(buf), "%u\t%u\t%.6f\t%.6f\n", p.ref_id,
                  p.set_id, p.matching_score, p.relatedness);
    out += buf;
  }
  return out;
}

std::vector<uint32_t> SampleIds(uint64_t seed, size_t n, size_t bound) {
  silkmoth::Rng rng(seed);
  std::vector<uint32_t> ids(n);
  for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.NextBounded(bound));
  return ids;
}

void SaveTrace(const RunConfig& cfg, const std::vector<const SpanBuffer*>& bufs,
               Report* r) {
  if (cfg.trace_path.empty()) return;
  Clock::time_point origin = Clock::time_point::max();
  for (const SpanBuffer* b : bufs) {
    for (const Span& s : b->spans()) origin = std::min(origin, s.start);
  }
  if (WriteTrace(cfg.trace_path, bufs, origin, 200)) {
    r->Note("trace written to " + cfg.trace_path);
  } else {
    r->Note("trace could not be written to " + cfg.trace_path);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return Usage();
      cfg.trace = v == "1";
      have_trace = true;
    } else if (a == "--toy") {
      cfg.toy = true;
    } else if (a == "--work-dir") {
      cfg.work_dir = value();
    } else if (a == "--trace-path") {
      cfg.trace_path = value();
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || !have_trace || cfg.seconds <= 0.0) {
    return Usage();
  }

  Report report;
  if (cfg.workload == "titles-selfjoin") {
    RunTitlesSelfJoin(cfg, &report);
  } else if (cfg.workload == "columns-topk") {
    RunColumnsTopK(cfg, &report);
  } else if (cfg.workload == "schema-serve-ingest") {
    RunSchemaServeIngest(cfg, &report);
  } else {
    return Usage();
  }

  const std::vector<Metric> metrics =
      cfg.trace ? Canonical(report.layer, LayerMetrics(), true, &report)
                : Canonical(report.e2e, E2eMetrics(), false, &report);
  if (report.attempted == 0) report.Fail("no operation was attempted");

  std::printf("# workload %s, seed %llu, %g s, trace %d%s\n",
              cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.toy ? ", toy size" : "");
  for (const std::string& n : report.notes) std::printf("# %s\n", n.c_str());
  for (const Metric& m : report.detail) {
    std::printf("detail %-32s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // A run that failed a check reports no numbers.
  const bool correct = report.errors.empty();
  const std::vector<Metric> shown = correct ? metrics : std::vector<Metric>{};
  for (const Metric& m : shown) {
    std::printf("%-6s %-32s %14.6f %s\n", cfg.trace ? "layer" : "e2e",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("ERROR %s\n", e.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    json << (i ? ", " : "") << "\"" << shown[i].name
         << "\": {\"value\": " << JsonNumber(shown[i].value)
         << ", \"unit\": \"" << shown[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
