// Timing, statistics and layer accounting for the synat benchmark.
//
// The benchmark's own spans wrap each public call it makes into a layer
// (BenchSpans). The program's own obs spans, which reach layers that
// cannot be called from outside (mover classification, purity), are read
// back through the public obs API and reduced to per-stage totals and
// self times (ObsTotals). Neither adds instrumentation to the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "synat/obs/obs.h"
#include "synat/obs/trace.h"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (every thread), user and system.
uint64_t cpu_ns();

struct SpanTotal {
  uint64_t ns = 0;
  uint64_t count = 0;
};

/// Thread-safe accumulator of the benchmark's own spans, by layer name.
class BenchSpans {
 public:
  void add(const std::string& layer, uint64_t ns);
  SpanTotal get(const std::string& layer) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, SpanTotal> totals_;
};

/// Runs `f`, charging its duration to `layer` when `spans` is set.
template <class F>
auto timed(BenchSpans* spans, const char* layer, F&& f) -> decltype(f()) {
  if (spans == nullptr) return f();
  struct Charge {
    BenchSpans* spans;
    const char* layer;
    uint64_t start;
    ~Charge() { spans->add(layer, now_ns() - start); }
  } charge{spans, layer, now_ns()};
  return f();
}

/// Per-stage totals of the program's own obs spans over one ObsWindow.
/// Counts and durations come from the stage histograms, which see every
/// span. Self time needs the spans themselves, and a thread's ring keeps
/// only its most recent spans once a pass emits more than it holds; so
/// self time is the surviving spans' self share applied to the exact total.
struct ObsTotals {
  SpanTotal total[synat::obs::kNumStages];
  double self_share[synat::obs::kNumStages] = {};
  /// Share of each stage's time spent in outermost spans.
  double root_share[synat::obs::kNumStages] = {};
  uint64_t dropped = 0;  ///< spans the rings overwrote
  uint64_t variants = 0;  ///< synat_variants_generated_total delta
  const SpanTotal& operator[](synat::obs::StageId s) const {
    return total[static_cast<size_t>(s)];
  }
  double self_ns(synat::obs::StageId s) const {
    const size_t i = static_cast<size_t>(s);
    return static_cast<double>(total[i].ns) * self_share[i];
  }
  /// Self time summed over every stage but `rpc_request`, which spans a
  /// request's queue wait on a lane of its own rather than any work. Over
  /// a span tree the self times sum to the outermost spans' time, so this
  /// is each stage's exact total times its root share: unlike the self
  /// shares, those are not skewed by the spans a wrapped ring lost.
  double layer_self_ns() const;
};

/// Program tracing (spans and stage histograms) on from construction to
/// finish(), with the span rings cleared at the start; finish() restores
/// the flags that were set before.
class ObsWindow {
 public:
  ObsWindow();
  ~ObsWindow();
  ObsWindow(const ObsWindow&) = delete;
  ObsWindow& operator=(const ObsWindow&) = delete;

  ObsTotals finish();

 private:
  SpanTotal base_[synat::obs::kNumStages];
  uint64_t base_dropped_ = 0;
  uint64_t base_variants_ = 0;
  uint32_t prev_flags_ = 0;
};

double median(std::vector<double> v);

/// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
/// beyond it; `pct` is 0 when there are fewer than 20 samples.
struct Tail {
  double value = 0;
  double pct = 0;
  size_t samples = 0;
};
Tail tail(std::vector<double> v);

/// ru_maxrss of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
