#include "trace.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "synat/obs/metrics.h"

namespace perfbench {

void BenchSpans::add(const std::string& layer, uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanTotal& t = totals_[layer];
  t.ns += ns;
  ++t.count;
}

SpanTotal BenchSpans::get(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = totals_.find(layer);
  return it == totals_.end() ? SpanTotal{} : it->second;
}

namespace {

uint64_t variants_generated() {
  return synat::obs::registry().counter("synat_variants_generated_total").value();
}

/// Self share per stage over the surviving spans: a span's self time is its
/// duration minus the direct children it encloses on the same lane and
/// thread.
///
/// A ring that wrapped lost its oldest spans. Spans are recorded when they
/// end, so every lost span ended before the earliest end among the kept
/// spans of its thread; a kept span that started before that point may
/// have lost children, and its self time would read too high. With
/// `truncated` such spans are left out of the self shares. Root shares
/// need no such rule: a parent ends after its children, so it is kept
/// whenever they are, and a kept span is outermost only if it really was.
void self_shares(std::vector<synat::obs::SpanRecord> spans, bool truncated,
                 ObsTotals& out) {
  auto thread_of = [](const synat::obs::SpanRecord& s) {
    return (static_cast<uint64_t>(s.lane) << 32) | s.tid;
  };
  std::map<uint64_t, uint64_t> first_end;
  for (const auto& s : spans) {
    auto [it, fresh] = first_end.emplace(thread_of(s), s.start_ns + s.dur_ns);
    if (!fresh) it->second = std::min(it->second, s.start_ns + s.dur_ns);
  }
  // Parents sort before the children they enclose: by start, longest first.
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.lane != b.lane) return a.lane < b.lane;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  uint64_t total[synat::obs::kNumStages] = {};
  uint64_t self[synat::obs::kNumStages] = {};
  uint64_t kept[synat::obs::kNumStages] = {};
  uint64_t root[synat::obs::kNumStages] = {};
  struct Open {
    size_t index;
    uint64_t end;
    uint64_t child_ns;
  };
  std::vector<Open> stack;
  auto counted = [&](const synat::obs::SpanRecord& s) {
    return !truncated || s.start_ns >= first_end[thread_of(s)];
  };
  auto close = [&] {
    const Open& o = stack.back();
    const auto& s = spans[o.index];
    if (counted(s)) self[s.stage] += s.dur_ns - std::min(s.dur_ns, o.child_ns);
    stack.pop_back();
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.stage >= synat::obs::kNumStages) continue;
    if (counted(s)) total[s.stage] += s.dur_ns;
    const bool new_thread =
        i > 0 && (spans[i - 1].lane != s.lane || spans[i - 1].tid != s.tid);
    while (!stack.empty() && (new_thread || stack.back().end <= s.start_ns)) close();
    kept[s.stage] += s.dur_ns;
    if (stack.empty()) root[s.stage] += s.dur_ns;
    if (!stack.empty()) stack.back().child_ns += s.dur_ns;
    stack.push_back({i, s.start_ns + s.dur_ns, 0});
  }
  while (!stack.empty()) close();
  for (size_t i = 0; i < synat::obs::kNumStages; ++i) {
    out.self_share[i] = total[i] ? static_cast<double>(self[i]) / total[i] : 0.0;
    out.root_share[i] = kept[i] ? static_cast<double>(root[i]) / kept[i] : 0.0;
  }
}

}  // namespace

ObsWindow::ObsWindow() {
  synat::obs::Tracer::instance().reset();
  for (size_t i = 0; i < synat::obs::kNumStages; ++i) {
    const auto& h = synat::obs::registry().stage_histogram(
        static_cast<synat::obs::StageId>(i));
    base_[i] = {h.sum_ns(), h.count()};
  }
  base_dropped_ = synat::obs::Tracer::instance().dropped();
  base_variants_ = variants_generated();
  prev_flags_ = synat::obs::flags();
  synat::obs::set_flags(prev_flags_ | synat::obs::kTraceFlag |
                        synat::obs::kMetricsFlag);
}

ObsWindow::~ObsWindow() { synat::obs::set_flags(prev_flags_); }

ObsTotals ObsWindow::finish() {
  synat::obs::set_flags(prev_flags_);
  ObsTotals out;
  for (size_t i = 0; i < synat::obs::kNumStages; ++i) {
    const auto& h = synat::obs::registry().stage_histogram(
        static_cast<synat::obs::StageId>(i));
    out.total[i] = {h.sum_ns() - base_[i].ns, h.count() - base_[i].count};
  }
  out.dropped = synat::obs::Tracer::instance().dropped() - base_dropped_;
  out.variants = variants_generated() - base_variants_;
  self_shares(synat::obs::Tracer::instance().drain(), out.dropped > 0, out);
  return out;
}

double ObsTotals::layer_self_ns() const {
  double sum = 0;
  for (size_t i = 0; i < synat::obs::kNumStages; ++i)
    if (static_cast<synat::obs::StageId>(i) != synat::obs::StageId::RpcRequest)
      sum += static_cast<double>(total[i].ns) * root_share[i];
  return sum;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    double beyond = static_cast<double>(v.size()) * (100.0 - p) / 100.0;
    if (beyond < 10.0) continue;
    // Nearest-rank percentile.
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
    t.value = v[std::max<size_t>(rank, 1) - 1];
    t.pct = p;
    return t;
  }
  t.value = v.back();
  return t;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t cpu_ns() {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench
