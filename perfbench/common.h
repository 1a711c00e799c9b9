#ifndef SILKMOTH_PERFBENCH_COMMON_H_
#define SILKMOTH_PERFBENCH_COMMON_H_

// Shared pieces of the repository benchmark: run configuration, sample
// statistics, the metric report, and the in-memory span recorder that the
// traced runs use to attribute time to the library's layers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;            ///< Tiny sizes: the self-check mode.
  std::string work_dir;        ///< Scratch directory inside the checkout.
  std::string trace_path;      ///< Where a traced run writes its spans.
};

/// Sorted-sample summary. Percentiles use the nearest-rank rule.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); sorted_ = false; }
  size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 100]. 0 when empty.
  double Percentile(double p) {
    if (v_.empty()) return 0.0;
    Sort();
    size_t rank = static_cast<size_t>(p / 100.0 * v_.size() + 0.999999);
    rank = std::clamp<size_t>(rank, 1, v_.size());
    return v_[rank - 1];
  }
  double Median() { return Percentile(50.0); }
  double Sum() const {
    double s = 0.0;
    for (double v : v_) s += v;
    return s;
  }
  /// The highest of p99.9/p99/p95/p90/p75 that still has at least ten
  /// samples above it; 0 when even p75 does not (the report then states
  /// only the median).
  double TailPercentile() const {
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
      if ((100.0 - p) / 100.0 * static_cast<double>(v_.size()) >= 10.0) {
        return p;
      }
    }
    return 0.0;
  }

 private:
  void Sort() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `e2e` is printed as the final JSON line of
/// an untraced run, `layer` as the final JSON line of a traced run, and
/// `detail` as human-readable lines before it (the workload-specific
/// end-to-end view, with sample counts).
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> detail;
  std::vector<std::string> notes;   ///< Free-form lines (sample counts...).
  std::vector<std::string> errors;  ///< Correctness failures; any fails it.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void E2e(const std::string& n, double v, const std::string& u) {
    e2e.push_back({n, v, u});
  }
  void Layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
  void Detail(const std::string& n, double v, const std::string& u) {
    detail.push_back({n, v, u});
  }
  void Note(const std::string& s) { notes.push_back(s); }
  void Fail(const std::string& s) { errors.push_back(s); }
  /// Records a timing distribution as `<name>` (median) plus its tail
  /// percentile, with the sample count in a note.
  void Distribution(const std::string& name, Samples s,
                    const std::string& unit);
};

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Times repetitions of a workload's set-up spread over the whole run: a
/// few back to back before the measured part, then one more whenever the
/// run finds one Due(), `interval_s` after the last. The median of samples
/// taken across the run, rather than in one burst at its start, is what a
/// drifting shared machine moves least.
class SetupTimer {
 public:
  explicit SetupTimer(double interval_s) : interval_s_(interval_s) {}

  /// Times one call of `setup`.
  template <typename F>
  void Run(F&& setup) {
    const auto t0 = Clock::now();
    setup();
    last_ = Clock::now();
    samples_.Add(Seconds(t0, last_));
  }
  /// Whether the interval has passed since the last set-up ended.
  bool Due() const { return Seconds(last_, Clock::now()) >= interval_s_; }
  double Median() { return samples_.Median(); }
  size_t size() const { return samples_.size(); }

 private:
  double interval_s_;
  Samples samples_;
  Clock::time_point last_ = Clock::now();
};

// --------------------------------------------------------------------------
// Tracing: spans kept in memory per thread and written out at the end.

/// Layers a span can belong to; the names are the library's module names.
enum class Layer : uint8_t {
  kCorePass,     ///< One reference's whole search pass (parent span).
  kSig,          ///< GenerateSignature.
  kCheck,        ///< SelectAndCheckCandidates.
  kNn,           ///< NnFilterCandidates.
  kMatching,     ///< One MaxMatchingVerifier::ScoreDecision.
  kWorker,       ///< One worker's whole slice (root span).
  kServeFrame,   ///< One frame, due time to response.
  kGenLag,       ///< Frame child: due time to send (generator lateness).
  kAdmit,        ///< Frame child: the Submit() call (admission; an
                 ///< ingest's inline apply).
  kExec,         ///< Frame child: the frame's direct-replay execution
                 ///< time, placed at the end of the frame.
  kQueryTokenize,///< BuildQueryBlock of a payload.
  kDeltaIngest,  ///< One DeltaShard::WithIngested replay.
  kCount,
};

const char* LayerName(Layer layer);

/// One finished span. `parent` indexes the same thread's span vector
/// (-1 for a root); `trace_id` groups the spans of one request.
struct Span {
  Clock::time_point start;
  Clock::time_point end;
  int32_t parent = -1;
  uint32_t trace_id = 0;
  Layer layer = Layer::kCorePass;
};

/// A single thread's span buffer. Not thread-safe; one per thread, merged
/// after the threads join.
class SpanBuffer {
 public:
  /// Opens a span and returns its index.
  int32_t Open(Layer layer, uint32_t trace_id, int32_t parent) {
    Span s;
    s.layer = layer;
    s.trace_id = trace_id;
    s.parent = parent;
    s.start = Clock::now();
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t idx) { spans_[idx].end = Clock::now(); }
  /// Records an already-timed span and returns its index.
  int32_t Add(Layer layer, uint32_t trace_id, Clock::time_point start,
              Clock::time_point end, int32_t parent = -1) {
    spans_.push_back(Span{start, end, parent, trace_id, layer});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-layer totals over a set of span buffers: total duration and self
/// time (duration minus the part covered by direct children; siblings never
/// overlap because each buffer belongs to one thread).
struct LayerTimes {
  double total[static_cast<int>(Layer::kCount)] = {};
  double self[static_cast<int>(Layer::kCount)] = {};

  void Add(const SpanBuffer& buf);
  double Total(Layer l) const { return total[static_cast<int>(l)]; }
  double Self(Layer l) const { return self[static_cast<int>(l)]; }
};

/// Writes the spans of requests with trace id below `max_trace_id` as one
/// JSON object per line: thread, index, parent, trace id, layer, and
/// start/end in microseconds from `origin`. The cap keeps the file small;
/// the per-layer metrics always cover every span.
bool WriteTrace(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                Clock::time_point origin, uint32_t max_trace_id);

/// FNV-1a over a byte string (result digests).
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ull);

}  // namespace perfbench

#endif  // SILKMOTH_PERFBENCH_COMMON_H_
