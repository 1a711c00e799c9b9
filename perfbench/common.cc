#include "common.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

void Report::Distribution(const std::string& name, Samples s,
                          const std::string& unit) {
  Detail(name, s.Median(), unit);
  const double tail = s.TailPercentile();
  char buf[160];
  if (tail > 0.0) {
    char pname[32];
    std::snprintf(pname, sizeof(pname), "p%g", tail);
    Detail(name + "." + pname, s.Percentile(tail), unit);
    std::snprintf(buf, sizeof(buf), "%s: %zu samples (median, %s)",
                  name.c_str(), s.size(), pname);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s: %zu samples (median only; too few for a tail)",
                  name.c_str(), s.size());
  }
  Note(buf);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCorePass: return "core.pass";
    case Layer::kSig: return "sig";
    case Layer::kCheck: return "filter.check";
    case Layer::kNn: return "filter.nn";
    case Layer::kMatching: return "matching";
    case Layer::kWorker: return "core.worker";
    case Layer::kServeFrame: return "serve.frame";
    case Layer::kGenLag: return "serve.gen_lag";
    case Layer::kAdmit: return "serve.admit";
    case Layer::kExec: return "serve.exec";
    case Layer::kQueryTokenize: return "text.query_tokenize";
    case Layer::kDeltaIngest: return "snapshot.delta.ingest";
    case Layer::kCount: break;
  }
  return "?";
}

void LayerTimes::Add(const SpanBuffer& buf) {
  const std::vector<Span>& spans = buf.spans();
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) covered[s.parent] += Seconds(s.start, s.end);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const int l = static_cast<int>(spans[i].layer);
    const double d = Seconds(spans[i].start, spans[i].end);
    total[l] += d;
    self[l] += d - covered[i];
  }
}

bool WriteTrace(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                Clock::time_point origin, uint32_t max_trace_id) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.trace_id >= max_trace_id) continue;
      std::fprintf(f,
                   "{\"thread\":%zu,\"span\":%zu,\"parent\":%d,\"trace\":%u,"
                   "\"layer\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   t, i, s.parent, s.trace_id, LayerName(s.layer),
                   Seconds(origin, s.start) * 1e6,
                   Seconds(origin, s.end) * 1e6);
    }
  }
  return std::fclose(f) == 0;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
