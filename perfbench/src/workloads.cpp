#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "gen.h"
#include "synat/atomicity/blocks.h"
#include "synat/atomicity/infer.h"
#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/interp/bytecode.h"
#include "synat/mc/mc.h"
#include "synat/mc/props.h"
#include "synat/serve/json.h"
#include "synat/serve/service.h"
#include "synat/synl/parser.h"
#include "trace.h"

namespace perfbench {

namespace {

using synat::obs::StageId;
using synat::serve::JsonValue;

constexpr double kMs = 1e6;  // ns per ms

// ---------------------------------------------------------------------------
// Metric sets. The end-to-end set is reported by every untraced run, the
// per-layer set by every traced one (a layer a workload does not exercise
// reports 0).

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"synl.parses", "count"},
      {"synl.parse_ms", "ms"},
      {"synl.parse_kb_per_s", "KB/s"},
      {"cfg.builds", "count"},
      {"cfg.build_ms", "ms"},
      {"cfg.events", "count"},
      {"analysis.proc_analysis_ms", "ms"},
      {"analysis.purity_ms", "ms"},
      {"atomicity.variants", "count"},
      {"atomicity.variants_ms", "ms"},
      {"atomicity.blocks_ms", "ms"},
      {"atomicity.movers_ms", "ms"},
      {"atomicity.infer_ms", "ms"},
      {"atomicity.infer_unattributed_ms", "ms"},
      {"atomicity.fingerprint_ms", "ms"},
      {"driver.cache_hits", "count"},
      {"driver.cache_misses", "count"},
      {"driver.cache_hit_ratio", "ratio"},
      {"driver.run_ms", "ms"},
      {"driver.render_ms", "ms"},
      {"driver.report_bytes", "bytes"},
      {"driver.worker_busy_ratio", "ratio"},
      {"driver.warm_procs_per_s", "1/s"},
      {"serve.decode_ms", "ms"},
      {"serve.execute_ms", "ms"},
      {"serve.wait_ms", "ms"},
      {"serve.reply_bytes", "bytes"},
      {"serve.procedures_reanalyzed", "count"},
      {"serve.reanalyzed_ratio", "ratio"},
      {"serve.envelope_misreport_ratio", "ratio"},
      {"serve.rpc_tail_ms", "ms"},
      {"serve.resubmit_p50_ms", "ms"},
      {"serve.edit_p50_ms", "ms"},
      {"serve.structural_p50_ms", "ms"},
      {"interp.compile_ms", "ms"},
      {"mc.states", "count"},
      {"mc.transitions", "count"},
      {"mc.transitions_per_state", "ratio"},
      {"mc.ns_per_state", "ns"},
      {"mc.canonicalize_ns", "ns"},
      {"mc.bytes_per_state", "bytes"},
      {"obs.trace_overhead", "ratio"},
      {"bench.layer_coverage", "ratio"},
  };
  return defs;
}

/// Per-layer values of one measured round; a run reports the median of
/// each over its rounds.
using Layers = std::map<std::string, double>;

void emit_layers(const std::vector<Layers>& rounds, Outcome& out) {
  for (const MetricDef& d : layer_defs()) {
    std::vector<double> v;
    for (const Layers& r : rounds) {
      auto it = r.find(d.name);
      v.push_back(it == r.end() ? 0.0 : it->second);
    }
    out.metrics.push_back({d.name, median(v), d.unit});
  }
}

void emit_e2e(double setup_s, double work_per_s, double op_p50_ms,
              Outcome& out) {
  out.metrics.push_back({"setup_s", setup_s, "s"});
  out.metrics.push_back({"work_per_s", work_per_s, "1/s"});
  out.metrics.push_back({"op_p50_ms", op_p50_ms, "ms"});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

/// Set-up samples, spread over the whole measurement. On a virtual
/// machine a lone thread's speed moves by up to half, in spells from tens
/// of milliseconds to seconds, with whether its host core's other
/// hardware thread is busy; a few-millisecond set-up timed alone lands
/// wholly in one spell. So a sample repeats the set-up until it has taken
/// kBlockNs in all and gives the time per repetition; `copies` copies of
/// the sampler run at once, one per CPU, so that every core is busy the
/// whole time, as it is during the measured work; and the samples are
/// spread over the run. The median sample is reported. With several
/// copies, `setup` must be safe to run on several threads at once.
/// `reset`, when given, runs untimed before each repetition and tears
/// down what the last one built.
class SetupSampler {
 public:
  SetupSampler(std::function<void()> setup, double seconds, unsigned copies,
               std::function<void()> reset = {})
      : setup_(std::move(setup)), reset_(std::move(reset)), copies_(copies),
        interval_ns_(static_cast<uint64_t>(seconds * 1e9 / kSpread)) {
    for (int i = 0; i < kBefore; ++i) sample();
    next_ns_ = now_ns() + interval_ns_;
  }
  /// Takes a sample if the next one is due; call between measured
  /// operations.
  void between_ops() {
    if (now_ns() < next_ns_) return;
    sample();
    next_ns_ = now_ns() + interval_ns_;
  }
  void sample() {
    std::vector<double> per(copies_);
    std::vector<std::thread> threads;
    for (unsigned c = 1; c < copies_; ++c)
      threads.emplace_back([this, &per, c] { per[c] = block(); });
    per[0] = block();
    for (std::thread& t : threads) t.join();
    samples_.insert(samples_.end(), per.begin(), per.end());
  }
  double median_s() const { return median(samples_); }

 private:
  static constexpr uint64_t kBlockNs = 250'000'000;
  static constexpr int kBefore = 3;  ///< samples before the measurement
  static constexpr int kSpread = 8;  ///< at most this many during it

  double block() {
    uint64_t spent = 0, reps = 0;
    do {
      if (reset_) reset_();
      const uint64_t t0 = now_ns();
      setup_();
      spent += now_ns() - t0;
      ++reps;
    } while (spent < kBlockNs);
    return static_cast<double>(spent) / 1e9 / static_cast<double>(reps);
  }

  std::function<void()> setup_, reset_;
  unsigned copies_;
  uint64_t interval_ns_, next_ns_ = 0;
  std::vector<double> samples_;
};

/// One set-up sampler copy per CPU.
unsigned cpus() { return std::max(1u, std::thread::hardware_concurrency()); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<uint64_t>(seconds * 1e9);
}

synat::driver::ProgramInput to_input(const GenProgram& g) {
  synat::driver::ProgramInput in;
  in.name = g.name;
  in.source = g.source;
  for (const std::string& c : g.counted) in.opts.counted_cas.push_back(c);
  return in;
}

synat::atomicity::InferOptions infer_options(const GenProgram& g) {
  synat::atomicity::InferOptions o;
  for (const std::string& c : g.counted) o.counted_cas.push_back(c);
  return o;
}

/// Fills the layer metrics that come from the program's own obs spans.
/// `per` divides every figure (1 for per-pass values, the request count
/// for per-request ones).
void obs_layers(const ObsTotals& t, double per, Layers& l) {
  auto ms = [&](StageId s) { return static_cast<double>(t[s].ns) / kMs / per; };
  l["synl.parses"] = static_cast<double>(t[StageId::Parse].count) / per;
  l["synl.parse_ms"] = ms(StageId::Parse);
  l["cfg.builds"] = static_cast<double>(t[StageId::CfgLiveness].count) / per;
  l["cfg.build_ms"] = ms(StageId::CfgLiveness);
  l["analysis.purity_ms"] = ms(StageId::Purity);
  l["atomicity.variants"] = static_cast<double>(t.variants) / per;
  l["atomicity.variants_ms"] = ms(StageId::Variants);
  l["atomicity.blocks_ms"] = ms(StageId::Blocks);
  l["atomicity.movers_ms"] = ms(StageId::Movers);
  l["atomicity.infer_ms"] = ms(StageId::Infer);
  l["atomicity.infer_unattributed_ms"] = t.self_ns(StageId::Infer) / kMs / per;
}

/// The benchmark's own walk through the analysis layers, one public call
/// at a time, each under a bench span: parse, then per original procedure
/// CFG construction, the ProcAnalysis bundle and variant generation; then
/// on a fresh parse the fingerprint, whole-program inference and block
/// summary. Inference verdicts are checked like every other output.
struct ReplayTotals {
  uint64_t events = 0;
  uint64_t source_bytes = 0;
};

/// Layer metrics from a layer replay's spans.
void replay_layers(const ReplayTotals& rt, const BenchSpans& spans, Layers& l) {
  l["synl.parse_kb_per_s"] =
      ratio(rt.source_bytes / 1024.0, spans.get("synl.parse").ns / 1e9);
  l["cfg.events"] = static_cast<double>(rt.events);
  l["analysis.proc_analysis_ms"] = spans.get("analysis.proc_analysis").ns / kMs;
  l["atomicity.fingerprint_ms"] = spans.get("atomicity.fingerprint").ns / kMs;
}

ReplayTotals layer_replay(const std::vector<GenProgram>& progs,
                          BenchSpans& spans, Checker& checker) {
  namespace at = synat::atomicity;
  ReplayTotals out;
  for (const GenProgram& g : progs) {
    const at::InferOptions opts = infer_options(g);
    synat::DiagEngine diags;
    synat::synl::Program prog = timed(&spans, "synl.parse", [&] {
      return synat::synl::parse_and_check(g.source, diags);
    });
    out.source_bytes += g.source.size();
    if (diags.has_errors()) {
      checker.fail(g.name + ": front-end errors in replay");
      continue;
    }
    const size_t originals = prog.num_procs();
    for (size_t i = 0; i < originals; ++i) {
      synat::synl::ProcId pid(static_cast<uint32_t>(i));
      synat::cfg::Cfg cfg = timed(&spans, "cfg.build",
                                  [&] { return synat::cfg::build_cfg(prog, pid); });
      out.events += cfg.num_nodes();
      auto pa = timed(&spans, "analysis.proc_analysis", [&] {
        return std::make_unique<synat::analysis::ProcAnalysis>(prog, pid);
      });
      timed(&spans, "atomicity.variants", [&] {
        return at::generate_variants(prog, pid, *pa, diags, opts.variant_opts);
      });
    }
    synat::synl::Program fresh = timed(&spans, "synl.parse", [&] {
      return synat::synl::parse_and_check(g.source, diags);
    });
    out.source_bytes += g.source.size();
    at::ProgramFingerprint fp = timed(&spans, "atomicity.fingerprint",
                                      [&] { return at::fingerprint_program(fresh, opts); });
    if (!fp.complete) checker.fail(g.name + ": incomplete fingerprint");
    at::AtomicityResult result = timed(&spans, "atomicity.infer", [&] {
      return at::infer_atomicity(fresh, diags, opts);
    });
    timed(&spans, "atomicity.blocks",
          [&] { return at::summarize_blocks(fresh, result); });
    for (size_t i = 0; i < g.procs.size(); ++i) {
      const at::ProcResult* r =
          result.result_for(synat::synl::ProcId(static_cast<uint32_t>(i)));
      if (r == nullptr)
        checker.fail(g.name + ": replay has no result for " + g.procs[i].name);
      else
        checker.verdict(g.name + " (replay)", g.procs[i], r->atomic);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Batch workloads: `wide_program` and `program_fleet`. A pass is one
// BatchDriver::run over every program followed by to_json. A cold pass runs
// without a cache, like `synat batch FILES... --jobs 4`; a warm pass runs on
// a cache that an earlier pass filled, like the second of two
// `synat batch --cache` runs.

struct BatchInputs {
  std::vector<GenProgram> progs;
  std::vector<synat::driver::ProgramInput> inputs;
  size_t procs = 0;
};

BatchInputs make_batch_inputs(std::vector<GenProgram> progs) {
  BatchInputs b;
  for (const GenProgram& g : progs) {
    b.inputs.push_back(to_input(g));
    b.procs += g.procs.size();
  }
  b.progs = std::move(progs);
  return b;
}

struct PassStats {
  uint64_t wall_ns = 0;  ///< run + render
  uint64_t run_ns = 0, render_ns = 0;
  uint64_t cpu_ns = 0;   ///< process CPU time over run + render
  uint64_t bytes = 0;
  uint64_t hits = 0, misses = 0;
};

constexpr unsigned kBatchJobs = 4;

/// One pass: a single driver run over every program, then rendering; with
/// `cache` null the driver runs without one. Outputs are checked after the
/// timed part.
PassStats batch_pass(const BatchInputs& in, synat::driver::ResultCache* cache,
                     Checker& checker, Outcome& out) {
  PassStats ps;
  synat::driver::DriverOptions o;
  o.jobs = kBatchJobs;
  o.use_cache = cache != nullptr;
  synat::driver::BatchDriver driver(o, cache);
  synat::driver::BatchReport report;
  std::string json;
  bool threw = false;
  const uint64_t c0 = cpu_ns();
  const uint64_t t0 = now_ns();
  uint64_t t1 = t0;
  try {
    report = driver.run(in.inputs);
    t1 = now_ns();
    json = synat::driver::to_json(report);
  } catch (const std::exception& e) {
    threw = true;
    checker.fail(std::string("driver threw: ") + e.what());
  }
  const uint64_t t2 = now_ns();
  ps.cpu_ns = cpu_ns() - c0;
  ps.wall_ns = t2 - t0;
  ps.run_ns = t1 - t0;
  ps.render_ns = t2 - t1;
  ps.bytes = json.size();
  ps.hits = report.metrics.cache_hits;
  ps.misses = report.metrics.cache_misses;
  const size_t count = in.inputs.size();
  out.attempted += count;
  if (threw || report.programs.size() != count) {
    out.failed += count;
    if (!threw) checker.fail("driver returned the wrong number of programs");
    return ps;
  }
  for (size_t i = 0; i < count; ++i) {
    const synat::driver::ProgramReport& pr = report.programs[i];
    bool ok = pr.status == synat::driver::ProgramStatus::Ok;
    for (const auto& p : pr.procs) ok &= !p->degraded;
    if (!ok) ++out.failed;
    checker.program(pr, in.progs[i]);
  }
  return ps;
}

Outcome run_batch(const RunOptions& ro, std::vector<GenProgram> (*gen)(uint64_t),
                  Checker& checker) {
  Outcome out;
  // The first set-up, untimed, makes the inputs and faults in the heap.
  BatchInputs in = make_batch_inputs(gen(ro.seed));
  out.notes.push_back(std::to_string(in.progs.size()) + " programs, " +
                      std::to_string(in.procs) + " procedures, jobs " +
                      std::to_string(kBatchJobs));

  if (!ro.trace) {
    SetupSampler setup([&] { make_batch_inputs(gen(ro.seed)); }, ro.seconds, cpus());
    const uint64_t deadline = deadline_after(ro.seconds);
    std::vector<double> ops, rates;
    do {
      PassStats ps = batch_pass(in, nullptr, checker, out);
      ops.push_back(static_cast<double>(ps.wall_ns) / kMs);
      rates.push_back(ratio(static_cast<double>(in.procs), ps.wall_ns / 1e9));
      setup.between_ops();
    } while (now_ns() < deadline);
    out.notes.push_back(std::to_string(ops.size()) + " cold passes");
    emit_e2e(setup.median_s(), median(rates), median(ops), out);
    return out;
  }

  // Each round: a cold pass untraced and traced (no cache), a pass that
  // fills a cache, and a warm pass on it untraced and traced; then the
  // layer replay.
  const uint64_t deadline = deadline_after(ro.seconds);
  std::vector<Layers> rounds;
  uint64_t dropped = 0;
  do {
    Layers l;
    PassStats cold_u = batch_pass(in, nullptr, checker, out);
    BenchSpans spans;
    ObsTotals cold_obs, warm_obs;
    PassStats cold_t, warm_t;
    {
      ObsWindow obs;
      cold_t = batch_pass(in, nullptr, checker, out);
      cold_obs = obs.finish();
    }
    synat::driver::ResultCache cache;
    PassStats fill = batch_pass(in, &cache, checker, out);
    PassStats warm_u = batch_pass(in, &cache, checker, out);
    {
      ObsWindow obs;
      warm_t = batch_pass(in, &cache, checker, out);
      warm_obs = obs.finish();
    }
    ReplayTotals rt = layer_replay(in.progs, spans, checker);

    obs_layers(cold_obs, 1, l);
    dropped = std::max(dropped, cold_obs.dropped);
    replay_layers(rt, spans, l);
    // Cache counters over the filling pass and the traced warm pass.
    const double hits = static_cast<double>(fill.hits + warm_t.hits);
    const double misses = static_cast<double>(fill.misses + warm_t.misses);
    l["driver.cache_hits"] = hits;
    l["driver.cache_misses"] = misses;
    l["driver.cache_hit_ratio"] = ratio(hits, hits + misses);
    l["driver.run_ms"] = cold_t.run_ns / kMs;
    l["driver.render_ms"] = cold_t.render_ns / kMs;
    l["driver.report_bytes"] = static_cast<double>(cold_t.bytes);
    // Busy time: the pool's analysis tasks (one `analyze` span each).
    l["driver.worker_busy_ratio"] =
        ratio(static_cast<double>(cold_obs[StageId::Analyze].ns),
              kBatchJobs * static_cast<double>(cold_t.run_ns));
    l["driver.warm_procs_per_s"] = ratio(static_cast<double>(in.procs), warm_u.wall_ns / 1e9);
    l["obs.trace_overhead"] =
        ratio(static_cast<double>(cold_t.wall_ns + warm_t.wall_ns),
              static_cast<double>(cold_u.wall_ns + warm_u.wall_ns)) - 1;
    // Layer self time of the traced passes: the obs stages plus to_json,
    // which runs outside every obs span.
    l["bench.layer_coverage"] =
        ratio(cold_obs.layer_self_ns() + warm_obs.layer_self_ns() +
                  static_cast<double>(cold_t.render_ns + warm_t.render_ns),
              static_cast<double>(cold_t.cpu_ns + warm_t.cpu_ns));
    rounds.push_back(std::move(l));
  } while (now_ns() < deadline);
  out.notes.push_back(std::to_string(rounds.size()) + " traced rounds; up to " +
                      std::to_string(dropped) +
                      " spans per pass overwritten in the trace rings (self "
                      "times are scaled from the spans kept)");
  emit_layers(rounds, out);
  return out;
}

// ---------------------------------------------------------------------------
// `serve_edit_session`: a closed loop of two clients against one Service
// (jobs 2). Each client sends its next request only after the previous
// reply arrived; latency runs from handle() to the reply callback.

constexpr int kServeClients = 2;
constexpr unsigned kServeJobs = 2;
/// Requests per client and session: five blocks of 20. A run replays the
/// session on fresh Services until its time is up, so the cache (which
/// never evicts) holds at most one session's entries whatever the speed.
constexpr size_t kSessionRequests = 100;

std::string encode_request(const GenProgram& g, int64_t id) {
  JsonValue params = JsonValue::make_object();
  params.add("program", JsonValue::make_string(g.source));
  params.add("name", JsonValue::make_string(g.name));
  if (!g.counted.empty()) {
    JsonValue arr = JsonValue::make_array();
    for (const std::string& c : g.counted) arr.push(JsonValue::make_string(c));
    params.add("counted", std::move(arr));
  }
  JsonValue req = JsonValue::make_object();
  req.add("jsonrpc", JsonValue::make_string("2.0"));
  req.add("id", JsonValue::make_number(id));
  req.add("method", JsonValue::make_string("analyze"));
  req.add("params", std::move(params));
  return synat::serve::encode_json(req);
}

std::string call(synat::serve::Service& svc, std::string line) {
  std::promise<std::string> reply;
  std::future<std::string> f = reply.get_future();
  svc.handle(std::move(line),
             [&reply](std::string r) { reply.set_value(std::move(r)); });
  return f.get();
}

struct ServeClient {
  EditSession session;
  std::vector<std::string> lines;  ///< encoded requests, consumed by a session
  // Per completed request k, which is session.requests[k].
  std::vector<uint64_t> start_ns, end_ns;
  std::vector<double> lat_ms;
  std::vector<std::string> replies;
};

struct ServeState {
  ServeClient clients[kServeClients];
  std::unique_ptr<synat::serve::Service> svc;
};

/// Decoded reply envelope.
struct Envelope {
  bool ok = false;
  uint64_t reanalyzed = 0;
  std::string report;
};

Envelope decode_reply(const std::string& reply) {
  Envelope e;
  synat::serve::JsonParse p = synat::serve::parse_json(reply);
  const JsonValue* result = p.ok ? p.value.get("result") : nullptr;
  if (result == nullptr) return e;
  const JsonValue* r = result->get("procedures_reanalyzed");
  const JsonValue* rep = result->get("report");
  if (!r || !rep || !rep->is_string()) return e;
  e.ok = true;
  e.reanalyzed = static_cast<uint64_t>(r->number);
  e.report = rep->str;
  return e;
}

/// Builds a fresh Service (cold cache) and both clients' sessions, and runs
/// the warm-up requests.
void serve_setup(ServeState& st, uint64_t seed, const Expected& expected,
                 Checker& checker) {
  synat::serve::ServiceOptions so;
  so.jobs = kServeJobs;
  st.svc = std::make_unique<synat::serve::Service>(so);
  for (int c = 0; c < kServeClients; ++c) {
    ServeClient& cl = st.clients[c];
    cl = ServeClient{};
    cl.session = gen_session(seed, c, kSessionRequests, expected.serve);
    for (size_t k = 0; k < cl.session.requests.size(); ++k)
      cl.lines.push_back(encode_request(cl.session.requests[k].program,
                                        static_cast<int64_t>(k + 1)));
    // Warm-up: the initial program, analyzed cold, fills the cache.
    Envelope e = decode_reply(call(*st.svc, encode_request(cl.session.initial, 0)));
    if (!e.ok)
      checker.fail("serve warm-up request failed");
    else
      checker.report_json(e.report, cl.session.initial);
  }
}

/// Runs both clients through their whole sessions. Returns the shared
/// cache's counter deltas.
struct CacheCounts {
  uint64_t hits = 0, misses = 0;
};
CacheCounts serve_session(ServeState& st) {
  const CacheCounts before{st.svc->cache().hits(), st.svc->cache().misses()};
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&st, c] {
      ServeClient& cl = st.clients[c];
      for (size_t k = 0; k < cl.lines.size(); ++k) {
        const uint64_t t0 = now_ns();
        std::string reply = call(*st.svc, std::move(cl.lines[k]));
        const uint64_t t1 = now_ns();
        cl.start_ns.push_back(t0);
        cl.end_ns.push_back(t1);
        cl.lat_ms.push_back(static_cast<double>(t1 - t0) / kMs);
        cl.replies.push_back(std::move(reply));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return {st.svc->cache().hits() - before.hits, st.svc->cache().misses() - before.misses};
}

/// Request kinds whose latencies are reported apart: an add and a remove
/// both change the program's declarations, so both are structural.
enum LatKind { kResubmitLat, kEditLat, kStructuralLat, kNumLatKinds };
const char* const kLatKindNames[kNumLatKinds] = {"resubmit", "edit", "structural"};

LatKind lat_kind(EditKind k) {
  switch (k) {
    case EditKind::Resubmit: return kResubmitLat;
    case EditKind::Edit: return kEditLat;
    default: return kStructuralLat;
  }
}

struct SessionTotals {
  uint64_t requests = 0, expected_reanalyzed = 0, submitted = 0, bytes = 0;
  uint64_t cache_misses = 0, cache_hits = 0;  ///< from the shared cache
  uint64_t misreports = 0;
  std::vector<double> lat_ms;
  std::vector<double> kind_lat_ms[kNumLatKinds];
};

/// Checks every reply of a session.
///
/// Fresh work is checked twice. Exactly: over a session the shared cache
/// must miss once per procedure the session's rules say is re-analyzed and
/// hit once for every other submitted procedure. Per request: the
/// envelope's procedures_reanalyzed must match the rule for every request
/// that ran while no other request was in flight. The envelope value of
/// requests that overlapped another one is the difference of the shared
/// cache's lifetime miss counter across the request, so it also counts the
/// misses of the overlapping request; those disagreements are counted
/// (`misreports`) and reported, not failed.
///
/// With `compare_batch`, the first reply of each request kind per client
/// must also be byte-identical to the in-process batch report of the same
/// source.
SessionTotals serve_check(const ServeState& st, const CacheCounts& delta,
                          bool compare_batch, Checker& checker, Outcome& out) {
  SessionTotals t;
  for (int c = 0; c < kServeClients; ++c) {
    const ServeClient& cl = st.clients[c];
    const ServeClient& other = st.clients[1 - c];
    std::set<EditKind> compared;
    size_t o = 0;  // first request of the other client still relevant
    for (size_t k = 0; k < cl.replies.size(); ++k) {
      const EditRequest& req = cl.session.requests[k];
      ++out.attempted;
      ++t.requests;
      t.lat_ms.push_back(cl.lat_ms[k]);
      t.kind_lat_ms[lat_kind(req.kind)].push_back(cl.lat_ms[k]);
      t.bytes += cl.replies[k].size();
      t.submitted += req.program.procs.size();
      t.expected_reanalyzed += req.expect_reanalyzed;
      Envelope e = decode_reply(cl.replies[k]);
      if (!e.ok) {
        ++out.failed;
        checker.fail("serve request " + std::to_string(k + 1) + " of client " +
                     std::to_string(c) + " failed");
        continue;
      }
      while (o < other.end_ns.size() && other.end_ns[o] < cl.start_ns[k]) ++o;
      const bool overlapped =
          o < other.start_ns.size() && other.start_ns[o] <= cl.end_ns[k];
      if (!overlapped)
        checker.equal(std::string("serve ") + to_string(req.kind) +
                          " request procedures_reanalyzed",
                      e.reanalyzed, req.expect_reanalyzed);
      else if (e.reanalyzed != req.expect_reanalyzed)
        ++t.misreports;
      checker.report_json(e.report, req.program);
      if (compare_batch && compared.insert(req.kind).second) {
        synat::driver::BatchDriver driver(synat::driver::DriverOptions{});
        std::string batch =
            synat::driver::to_json(driver.run({to_input(req.program)}));
        if (batch != e.report)
          checker.fail(std::string("served report for a ") + to_string(req.kind) +
                       " request differs from the batch report");
      }
    }
  }
  t.cache_misses = delta.misses;
  t.cache_hits = delta.hits;
  checker.equal("serve session procedures re-analyzed (cache misses)", t.cache_misses,
                t.expected_reanalyzed);
  checker.equal("serve session procedures served from the cache (hits)", t.cache_hits,
                t.submitted - t.expected_reanalyzed);
  return t;
}

/// "p95 = 41.2 ms over 290 samples"
std::string describe(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%g = %.3f ms over %zu samples", t.pct, t.value,
                t.samples);
  return buf;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// "resubmit p50 = 21.3 ms over 302, edit ..."
std::string describe_kinds(const std::vector<double> (&lat)[kNumLatKinds]) {
  std::string out;
  for (int k = 0; k < kNumLatKinds; ++k) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%s p50 = %.3f ms over %zu", k ? ", " : "",
                  kLatKindNames[k], median(lat[k]), lat[k].size());
    out += buf;
  }
  return out;
}

/// Stage histograms on for the whole workload, as `synat serve` always
/// records them; restores the previous flags on exit.
struct ServeMetricsFlag {
  uint32_t prev = synat::obs::flags();
  ServeMetricsFlag() { synat::obs::set_flags(prev | synat::obs::kMetricsFlag); }
  ~ServeMetricsFlag() { synat::obs::set_flags(prev); }
};

Outcome run_serve(const RunOptions& ro, const Expected& expected,
                  Checker& checker) {
  const ServeMetricsFlag metrics_flag;
  Outcome out;
  ServeState st;
  // A set-up takes about as long as a sampler block, so a sample is
  // mostly one set-up; prepare() takes one to build the fresh Service
  // before each later session. One copy only: the set-up fills the shared
  // `st`, and its warm-up requests already run on the Service's threads.
  serve_setup(st, ro.seed, expected, checker);
  SetupSampler setup([&] { serve_setup(st, ro.seed, expected, checker); },
                     ro.seconds, 1, [&] { st = ServeState{}; });
  const uint64_t deadline = deadline_after(ro.seconds);

  // One session on the set-up's Service, then each on a fresh one, built
  // by prepare() before any timing or tracing starts.
  size_t sessions = 0;
  auto prepare = [&] {
    if (sessions > 0) setup.sample();
  };
  uint64_t wall_ns_last = 0, cpu_ns_last = 0;  // of the last session
  auto run_session = [&] {
    const uint64_t c0 = cpu_ns();
    const uint64_t t0 = now_ns();
    CacheCounts delta = serve_session(st);
    wall_ns_last = now_ns() - t0;
    cpu_ns_last = cpu_ns() - c0;
    return serve_check(st, delta, sessions++ == 0, checker, out);
  };
  std::vector<double> kind_lat[kNumLatKinds];  // untraced sessions only
  auto add_kinds = [&](const SessionTotals& t) {
    for (int k = 0; k < kNumLatKinds; ++k)
      kind_lat[k].insert(kind_lat[k].end(), t.kind_lat_ms[k].begin(),
                         t.kind_lat_ms[k].end());
  };

  if (!ro.trace) {
    std::vector<double> lat;
    uint64_t requests = 0, wall = 0, misreports = 0;
    do {
      prepare();
      SessionTotals t = run_session();
      wall += wall_ns_last;
      requests += t.requests;
      misreports += t.misreports;
      lat.insert(lat.end(), t.lat_ms.begin(), t.lat_ms.end());
      add_kinds(t);
    } while (now_ns() < deadline);
    out.notes.push_back(std::to_string(kServeClients) + " clients, jobs " +
                        std::to_string(kServeJobs) + ", " + std::to_string(sessions) +
                        " sessions, " + std::to_string(requests) + " requests; " +
                        describe(tail(lat)));
    out.notes.push_back(describe_kinds(kind_lat));
    out.notes.push_back(std::to_string(misreports) +
                        " overlapped requests whose envelope procedures_reanalyzed "
                        "counted another request's misses");
    emit_e2e(setup.median_s(), ratio(static_cast<double>(requests), wall / 1e9),
             median(lat), out);
    return out;
  }

  // Sessions alternate untraced (tail latency, overhead baseline) and
  // traced; the layer replay covers the two initial programs once.
  Layers replay;
  {
    BenchSpans spans;
    std::vector<GenProgram> initial;
    for (const ServeClient& cl : st.clients) initial.push_back(cl.session.initial);
    replay_layers(layer_replay(initial, spans, checker), spans, replay);
  }
  std::vector<Layers> rounds;
  std::vector<double> untraced_lat;
  uint64_t dropped = 0;
  do {
    prepare();
    SessionTotals u = run_session();
    untraced_lat.insert(untraced_lat.end(), u.lat_ms.begin(), u.lat_ms.end());
    add_kinds(u);
    ObsTotals ot;
    SessionTotals tr;
    prepare();
    {
      ObsWindow obs;
      tr = run_session();
      ot = obs.finish();
    }
    dropped = std::max(dropped, ot.dropped);
    const double n = std::max<double>(1, static_cast<double>(tr.requests));
    Layers l = replay;
    obs_layers(ot, n, l);
    l["driver.cache_hits"] = static_cast<double>(tr.cache_hits) / n;
    l["driver.cache_misses"] = static_cast<double>(tr.cache_misses) / n;
    l["driver.cache_hit_ratio"] =
        ratio(static_cast<double>(tr.cache_hits),
              static_cast<double>(tr.cache_hits + tr.cache_misses));
    const double decode = ratio(ot[StageId::RpcDecode].ns / kMs,
                                static_cast<double>(ot[StageId::RpcDecode].count));
    const double execute = ratio(ot[StageId::RpcExecute].ns / kMs,
                                 static_cast<double>(ot[StageId::RpcExecute].count));
    l["serve.decode_ms"] = decode;
    l["serve.execute_ms"] = execute;
    l["serve.wait_ms"] = std::max(0.0, mean(tr.lat_ms) - decode - execute);
    l["serve.reply_bytes"] = static_cast<double>(tr.bytes) / n;
    l["serve.procedures_reanalyzed"] = static_cast<double>(tr.cache_misses) / n;
    l["serve.reanalyzed_ratio"] =
        ratio(static_cast<double>(tr.cache_misses), static_cast<double>(tr.submitted));
    l["serve.envelope_misreport_ratio"] =
        ratio(static_cast<double>(u.misreports + tr.misreports),
              static_cast<double>(u.requests + tr.requests));
    l["obs.trace_overhead"] = ratio(mean(tr.lat_ms), mean(u.lat_ms)) - 1;
    l["bench.layer_coverage"] = ratio(ot.layer_self_ns(), static_cast<double>(cpu_ns_last));
    rounds.push_back(std::move(l));
  } while (now_ns() < deadline);
  const Tail tl = tail(untraced_lat);
  for (Layers& l : rounds) {
    l["serve.rpc_tail_ms"] = tl.value;
    for (int k = 0; k < kNumLatKinds; ++k)
      l[std::string("serve.") + kLatKindNames[k] + "_p50_ms"] = median(kind_lat[k]);
  }
  out.notes.push_back(std::to_string(rounds.size()) + " untraced + traced session pairs; untraced " +
                      describe(tl) + "; up to " + std::to_string(dropped) +
                      " spans per session overwritten in the trace rings");
  out.notes.push_back("untraced " + describe_kinds(kind_lat));
  emit_layers(rounds, out);
  return out;
}

// ---------------------------------------------------------------------------
// `mc_explore`: the E5 Gao-Hesselink driver and the E2 NFQ' drivers under
// the model checker. Pinned rows run exhaustively; the two 3-thread E5
// rows without atomic blocks run to a fixed state budget.

constexpr uint64_t kMcBudget = 60'000;
/// Independent checker instances running side by side, one per core, each
/// with its own seeded row order and thread order.
constexpr int kMcLanes = 4;

struct McProgram {
  std::unique_ptr<synat::synl::Program> prog;
  synat::interp::CompiledProgram cp;
  int value_field = -1, next_field = -1;
};

enum McProg { kGh = 0, kNfq = 1, kNfqBug = 2 };

struct McRow {
  std::string name;
  McProg prog = kGh;
  bool por = false, atomic = false;
  synat::mc::RunSpec spec;
  uint64_t budget = 0;  ///< 0: exhaustive
};

struct McState {
  McProgram progs[3];
  std::vector<McRow> lanes[kMcLanes];
  double compile_ms = 0;
  /// Atomic blocks for the checker, from the analysis: NFQ' for E2, GH
  /// program 1 for E5 (the paper's Sec. 6.3 argument carries program 1's
  /// verdict over to the full program the E5 driver runs).
  std::vector<std::string> nfq_atomic, gh_atomic;
};

/// A corpus entry as a benchmark input, its procedures answering for
/// themselves.
GenProgram corpus_program(const char* entry) {
  const synat::corpus::Entry& e = synat::corpus::get(entry);
  GenProgram g;
  g.name = std::string("corpus:") + entry;
  g.source = std::string(e.source);
  for (auto c : e.counted_cas) g.counted.emplace_back(c);
  synat::DiagEngine diags;
  synat::synl::Program prog = synat::synl::parse_and_check(e.source, diags);
  for (size_t i = 0; i < prog.num_procs(); ++i) {
    std::string name(prog.syms().name(prog.proc(synat::synl::ProcId(static_cast<uint32_t>(i))).name));
    g.procs.push_back({name, entry, name});
  }
  return g;
}

/// Procedures of `g` the analysis proves atomic, as `synat batch` reports
/// them; each verdict is checked against the answers first.
std::vector<std::string> proved_atomic(const GenProgram& g, BenchSpans* spans,
                                       Checker& checker) {
  synat::driver::BatchDriver driver(synat::driver::DriverOptions{});
  synat::driver::BatchReport report =
      timed(spans, "driver.run", [&] { return driver.run({to_input(g)}); });
  timed(spans, "driver.render", [&] { return synat::driver::to_json(report); });
  std::vector<std::string> out;
  if (report.programs.size() != 1) {
    checker.fail("mc set-up: no report for " + g.name);
    return out;
  }
  checker.program(report.programs[0], g);
  for (const auto& p : report.programs[0].procs)
    if (p->atomic) out.push_back(p->name);
  return out;
}

/// The 11 rows of one lane. The seed permutes thread order and row order;
/// relabeling threads maps the state graph onto an isomorphic one, so the
/// pinned counts still hold.
std::vector<McRow> mc_rows(Rng& rng) {
  auto gh_threads = [&](int n) {
    std::vector<int> g;
    for (int i = 1; i <= n; ++i) g.push_back(i);
    rng.shuffle(g);
    std::vector<synat::mc::ThreadPlan> t;
    for (int x : g) t.push_back({"Apply", {synat::mc::Value::of_int(x)}, "TInit", {}});
    return t;
  };
  auto nfq_threads = [&] {
    std::vector<synat::mc::ThreadPlan> t = {
        {"AddNode", {synat::mc::Value::of_int(1)}, "", {}},
        {"AddNode", {synat::mc::Value::of_int(2)}, "", {}},
        {"UpdateTail", {}, "", {}}};
    rng.shuffle(t);
    return t;
  };
  auto row = [&](std::string name, McProg p, bool por, bool atomic,
                 std::vector<synat::mc::ThreadPlan> threads, uint64_t budget) {
    McRow r;
    r.name = std::move(name);
    r.prog = p;
    r.por = por;
    r.atomic = atomic;
    r.spec.global_init = "Init";
    r.spec.threads = std::move(threads);
    r.budget = budget;
    return r;
  };
  std::vector<McRow> rows = {
      row("e5_2t_none", kGh, false, false, gh_threads(2), 0),
      row("e5_2t_por", kGh, true, false, gh_threads(2), 0),
      row("e5_2t_atomic", kGh, false, true, gh_threads(2), 0),
      row("e5_2t_both", kGh, true, true, gh_threads(2), 0),
      row("e5_3t_atomic", kGh, false, true, gh_threads(3), 0),
      row("e5_3t_none_budget", kGh, false, false, gh_threads(3), kMcBudget),
      row("e5_3t_por_budget", kGh, true, false, gh_threads(3), kMcBudget),
      row("e2_2add_plain", kNfq, false, false, nfq_threads(), 0),
      row("e2_2add_atomic", kNfq, false, true, nfq_threads(), 0),
      row("e2_bug_plain", kNfqBug, false, false, nfq_threads(), 0),
      row("e2_bug_atomic", kNfqBug, false, true, nfq_threads(), 0),
  };
  rng.shuffle(rows);
  return rows;
}

/// Programs whose verdicts give the checker its atomic blocks.
const char* const kMcAnalyzed[] = {"nfq_prime", "gh_large_v1"};

void mc_setup(McState& st, uint64_t seed, Checker& checker,
              BenchSpans* spans = nullptr) {
  const char* names[3] = {"gh_mc", "nfq_prime_mc", "nfq_prime_bug_mc"};
  st.compile_ms = 0;
  st.nfq_atomic = proved_atomic(corpus_program(kMcAnalyzed[0]), spans, checker);
  st.gh_atomic = proved_atomic(corpus_program(kMcAnalyzed[1]), spans, checker);
  for (int i = 0; i < 3; ++i) {
    McProgram& p = st.progs[i];
    synat::DiagEngine diags;
    p.prog = std::make_unique<synat::synl::Program>(
        synat::synl::parse_and_check(synat::corpus::get(names[i]).source, diags));
    const uint64_t t0 = now_ns();
    p.cp = synat::interp::compile_program(*p.prog, diags);
    st.compile_ms += static_cast<double>(now_ns() - t0) / kMs;
    if (diags.has_errors()) checker.fail(std::string(names[i]) + ": front-end errors");
    if (i != kGh) {
      synat::synl::ClassId node = p.prog->find_class(p.prog->syms().lookup("Node"));
      p.value_field = p.prog->cls(node).field_index(p.prog->syms().lookup("Value"));
      p.next_field = p.prog->cls(node).field_index(p.prog->syms().lookup("Next"));
    }
  }
  Rng rng(seed ^ 0x6d63ull);
  for (std::vector<McRow>& lane : st.lanes) lane = mc_rows(rng);
}

/// Sampling hooks of a traced row: canonicalize every 64th state the
/// invariant sees and, when `heap` is set, read the heap in use every
/// 4096th.
struct McProbe {
  bool heap = false;
  uint64_t calls = 0;
  uint64_t canon_ns = 0, canon_calls = 0;
  size_t heap_base = 0, heap_peak = 0;
};

struct McRowResult {
  synat::mc::Result r;
  uint64_t ns = 0;
};

size_t heap_in_use() {
  struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

McRowResult run_row(const McState& st, const McRow& row, McProbe* probe) {
  const McProgram& p = st.progs[row.prog];
  synat::mc::Options opts;
  opts.por = row.por;
  if (row.prog == kGh) {
    opts.array_size = 4;  // groups 1..3
    if (row.atomic) opts.atomic_procs = st.gh_atomic;
  } else if (row.atomic) {
    opts.atomic_procs = st.nfq_atomic;
  }
  opts.max_states = row.budget ? row.budget : 100'000'000;
  // Property callbacks and the canonicalize probe read states through a
  // reference checker with the same program and options.
  synat::mc::ModelChecker reference(p.cp, opts);
  if (row.prog != kGh) {
    opts.invariant = synat::mc::queue_wellformed(reference, p.next_field);
    opts.final_check = synat::mc::queue_final_contents(reference, p.value_field,
                                                       p.next_field, {1, 2});
  }
  if (probe != nullptr) {
    if (probe->heap) probe->heap_base = probe->heap_peak = heap_in_use();
    synat::mc::StateCheck inner = opts.invariant;
    opts.invariant = [probe, &reference, inner](const synat::mc::State& s,
                                                const synat::interp::Interp& in)
        -> std::optional<std::string> {
      if (++probe->calls % 64 == 0) {
        const uint64_t t0 = now_ns();
        std::string canon = reference.canonicalize(s);
        probe->canon_ns += now_ns() - t0;
        ++probe->canon_calls;
      }
      if (probe->heap && probe->calls % 4096 == 0)
        probe->heap_peak = std::max(probe->heap_peak, heap_in_use());
      return inner ? inner(s, in) : std::nullopt;
    };
  }
  synat::mc::ModelChecker checker(p.cp, opts);
  McRowResult out;
  const uint64_t t0 = now_ns();
  out.r = checker.run(row.spec);
  out.ns = now_ns() - t0;
  return out;
}

struct McRound {
  uint64_t states = 0, transitions = 0;
  uint64_t busy_ns = 0;              ///< checker time summed over lanes
  uint64_t cpu_ns = 0;               ///< process CPU time of the round
  std::vector<double> lane_ms;       ///< each lane's time for its rows
  uint64_t canon_ns = 0, canon_calls = 0;
};

/// Every lane runs its rows on its own thread; results are checked after
/// the lanes joined.
McRound mc_round(const McState& st, bool traced, BenchSpans* spans,
                 Checker& checker, Outcome& out) {
  std::vector<McRowResult> results[kMcLanes];
  McProbe probes[kMcLanes];
  const uint64_t c0 = cpu_ns();
  std::vector<std::thread> threads;
  for (int t = 0; t < kMcLanes; ++t) {
    threads.emplace_back([&, t] {
      for (const McRow& row : st.lanes[t])
        results[t].push_back(run_row(st, row, traced ? &probes[t] : nullptr));
    });
  }
  for (std::thread& th : threads) th.join();
  McRound rd;
  rd.cpu_ns = cpu_ns() - c0;
  for (int t = 0; t < kMcLanes; ++t) {
    uint64_t lane_ns = 0;
    for (size_t i = 0; i < results[t].size(); ++i) {
      const McRow& row = st.lanes[t][i];
      const McRowResult& rr = results[t][i];
      if (spans != nullptr) spans->add("mc.run", rr.ns);
      rd.states += rr.r.states;
      rd.transitions += rr.r.transitions;
      lane_ns += rr.ns;
      ++out.attempted;
      if (!checker.mc_row(row.name, rr.r.states, rr.r.error_found,
                          rr.r.hit_state_limit, row.budget))
        ++out.failed;
    }
    rd.busy_ns += lane_ns;
    rd.lane_ms.push_back(static_cast<double>(lane_ns) / kMs);
    rd.canon_ns += probes[t].canon_ns;
    rd.canon_calls += probes[t].canon_calls;
  }
  return rd;
}

/// Heap bytes per explored state: the unreduced 3-thread budget row run
/// alone, so no other checker shares the heap while it is sampled.
double mc_bytes_per_state(const McState& st) {
  for (const McRow& row : st.lanes[0]) {
    if (row.name != "e5_3t_none_budget") continue;
    McProbe probe;
    probe.heap = true;
    McRowResult rr = run_row(st, row, &probe);
    return ratio(static_cast<double>(probe.heap_peak - std::min(probe.heap_peak, probe.heap_base)),
                 static_cast<double>(rr.r.states));
  }
  return 0;
}

Outcome run_mc(const RunOptions& ro, const Expected& expected, Checker& checker) {
  Outcome out;
  McState st;
  // The first set-up, untimed, builds the state the rounds use.
  mc_setup(st, ro.seed, checker);

  if (!ro.trace) {
    std::mutex mu;  // guards `checker` for the sampler's copies
    SetupSampler setup(
        [&] {
          McState fresh;
          Checker local(expected);
          mc_setup(fresh, ro.seed, local);
          std::lock_guard<std::mutex> lock(mu);
          for (const std::string& e : local.errors()) checker.fail(e);
        },
        ro.seconds, cpus());
    const uint64_t deadline = deadline_after(ro.seconds);
    uint64_t states = 0;
    std::vector<double> lanes, rates;
    do {
      McRound rd = mc_round(st, false, nullptr, checker, out);
      setup.between_ops();
      states += rd.states;
      lanes.insert(lanes.end(), rd.lane_ms.begin(), rd.lane_ms.end());
      rates.push_back(ratio(static_cast<double>(rd.states), rd.busy_ns / 1e9));
    } while (now_ns() < deadline);
    out.notes.push_back(std::to_string(rates.size()) + " rounds of " +
                        std::to_string(kMcLanes) + " lanes x " +
                        std::to_string(st.lanes[0].size()) + " rows, " +
                        std::to_string(states) + " states");
    emit_e2e(setup.median_s(), median(rates), median(lanes), out);
    return out;
  }

  // The analysis layers run once per set-up, for the atomic blocks; one
  // traced set-up gives their figures.
  const uint64_t deadline = deadline_after(ro.seconds);
  Layers analysis;
  {
    BenchSpans spans;
    McState traced;
    ObsWindow obs;
    mc_setup(traced, ro.seed, checker, &spans);
    obs_layers(obs.finish(), 1, analysis);
    std::vector<GenProgram> progs;
    for (const char* e : kMcAnalyzed) progs.push_back(corpus_program(e));
    ReplayTotals rt = layer_replay(progs, spans, checker);
    replay_layers(rt, spans, analysis);
    analysis["driver.run_ms"] = spans.get("driver.run").ns / kMs;
    analysis["driver.render_ms"] = spans.get("driver.render").ns / kMs;
  }
  std::vector<Layers> rounds;
  do {
    McRound plain = mc_round(st, false, nullptr, checker, out);
    BenchSpans spans;
    McRound rd = mc_round(st, true, &spans, checker, out);
    Layers l = analysis;
    l["interp.compile_ms"] = st.compile_ms;
    l["mc.states"] = static_cast<double>(rd.states);
    l["mc.transitions"] = static_cast<double>(rd.transitions);
    l["mc.transitions_per_state"] =
        ratio(static_cast<double>(rd.transitions), static_cast<double>(rd.states));
    l["mc.ns_per_state"] = ratio(static_cast<double>(plain.busy_ns),
                                 static_cast<double>(plain.states));
    l["mc.canonicalize_ns"] = ratio(static_cast<double>(rd.canon_ns),
                                    static_cast<double>(rd.canon_calls));
    l["mc.bytes_per_state"] = mc_bytes_per_state(st);
    l["obs.trace_overhead"] =
        ratio(static_cast<double>(rd.busy_ns), static_cast<double>(plain.busy_ns)) - 1;
    l["bench.layer_coverage"] = ratio(static_cast<double>(spans.get("mc.run").ns),
                                      static_cast<double>(rd.cpu_ns));
    rounds.push_back(std::move(l));
  } while (now_ns() < deadline);
  out.notes.push_back(std::to_string(rounds.size()) + " traced rounds");
  emit_layers(rounds, out);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "wide_program", "program_fleet", "serve_edit_session", "mc_explore"};
  return names;
}

Outcome run_workload(const RunOptions& ro, const Expected& expected,
                     Checker& checker) {
  if (ro.workload == "wide_program") return run_batch(ro, gen_wide, checker);
  if (ro.workload == "program_fleet") return run_batch(ro, gen_fleet, checker);
  if (ro.workload == "serve_edit_session") return run_serve(ro, expected, checker);
  if (ro.workload == "mc_explore") return run_mc(ro, expected, checker);
  checker.fail("unknown workload " + ro.workload);
  return {};
}

}  // namespace perfbench
