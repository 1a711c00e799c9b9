#ifndef SILKMOTH_PERFBENCH_WORKLOADS_H_
#define SILKMOTH_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "core/stats.h"

namespace perfbench {

/// Each workload fills `report`: the contract end-to-end metrics (untraced
/// runs) or the per-layer metrics (traced runs), the workload-specific
/// detail lines, and any correctness failure.
void RunTitlesSelfJoin(const RunConfig& cfg, Report* report);
void RunColumnsTopK(const RunConfig& cfg, Report* report);
void RunSchemaServeIngest(const RunConfig& cfg, Report* report);

/// Pair lines in the serve/query output format ("ref\tset\tm\trel\n").
std::string FormatPairs(const std::vector<silkmoth::PairMatch>& pairs);

/// Counters-only view of a funnel, for exact comparisons.
inline std::string Funnel(const silkmoth::SearchStats& s) {
  return s.CountersJson();
}

/// Writes the traced run's spans to cfg.trace_path (when set) and notes
/// where they went.
void SaveTrace(const RunConfig& cfg, const std::vector<const SpanBuffer*>& bufs,
               Report* report);

/// Draws `n` distinct-or-not indices in [0, bound) from a seeded stream.
std::vector<uint32_t> SampleIds(uint64_t seed, size_t n, size_t bound);

}  // namespace perfbench

#endif  // SILKMOTH_PERFBENCH_WORKLOADS_H_
