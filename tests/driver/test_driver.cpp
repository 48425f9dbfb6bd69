// Integration tests for the batch driver: the determinism and cache
// guarantees the CLI and benches rely on, checked over the whole corpus.
#include "synat/driver/driver.h"

#include <gtest/gtest.h>

#include <fstream>
#include <thread>

#include "synat/corpus/corpus.h"
#include "synat/obs/metrics.h"
#include "synat/obs/obs.h"

namespace synat::driver {
namespace {

std::vector<ProgramInput> corpus_inputs() {
  std::vector<ProgramInput> inputs;
  for (const corpus::Entry& e : corpus::all()) {
    ProgramInput in;
    in.name = "corpus:" + std::string(e.name);
    in.source = std::string(e.source);
    for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

std::string run_json(DriverOptions opts, ResultCache* cache = nullptr) {
  BatchDriver drv(opts, cache);
  return to_json(drv.run(corpus_inputs()));
}

TEST(BatchDriver, JsonDeterministicAcrossJobCounts) {
  DriverOptions serial;
  std::string baseline = run_json(serial);
  for (unsigned jobs : {2u, 8u}) {
    DriverOptions opts;
    opts.jobs = jobs;
    EXPECT_EQ(run_json(opts), baseline) << "--jobs " << jobs;
  }
}

// Everything up to the metrics block; the cache_hits/cache_misses counters
// legitimately differ between a cold and a warm run.
std::string analysis_part(const std::string& json) {
  size_t cut = json.find("\"metrics\"");
  EXPECT_NE(cut, std::string::npos);
  return json.substr(0, cut);
}

TEST(BatchDriver, WarmCacheRunIsByteIdenticalAndAllHits) {
  DriverOptions opts;
  opts.use_cache = true;
  ResultCache cache;
  std::string cold = run_json(opts, &cache);
  size_t cold_hits = cache.hits();
  std::string warm = run_json(opts, &cache);
  EXPECT_EQ(analysis_part(warm), analysis_part(cold));
  size_t warm_hits = cache.hits() - cold_hits;
  EXPECT_EQ(warm_hits, cache.misses());  // every cold miss is a warm hit
  EXPECT_GT(warm_hits, 0u);

  DriverOptions plain;
  // Caching never changes verdicts.
  EXPECT_EQ(analysis_part(run_json(plain)), analysis_part(cold));
}

// A run's hit and miss counts come from its own lookups, never from the
// shared cache's lifetime counters: two runs overlapping on one cache (the
// serve daemon's situation) each count exactly their own procedures.
TEST(BatchDriver, ConcurrentRunsOnOneCacheCountOnlyTheirOwnLookups) {
  ResultCache cache;
  DriverOptions opts;
  opts.use_cache = true;
  const std::vector<ProgramInput> inputs = corpus_inputs();
  auto client = [&] {
    for (int i = 0; i < 25; ++i) {
      if (i % 5 == 0) cache.clear();  // keep misses in the mix
      BatchDriver drv(opts, &cache);
      BatchReport r = drv.run(inputs);
      EXPECT_EQ(r.metrics.cache_hits + r.metrics.cache_misses,
                r.metrics.procedures);
    }
  };
  std::thread a(client), b(client);
  a.join();
  b.join();
}

TEST(BatchDriver, CachePersistedAcrossProcessesViaSnapshot) {
  std::string path = testing::TempDir() + "synat_driver_test.synatcache";
  DriverOptions opts;
  opts.use_cache = true;
  {
    ResultCache cache;
    run_json(opts, &cache);
    ASSERT_TRUE(cache.save(path));
  }
  ResultCache reloaded;
  ASSERT_TRUE(reloaded.load(path));
  run_json(opts, &reloaded);
  EXPECT_EQ(reloaded.misses(), 0u);  // snapshot served every procedure
  std::remove(path.c_str());
}

TEST(BatchDriver, OptionFingerprintSeparatesConfigurations) {
  atomicity::InferOptions a;
  atomicity::InferOptions b = a;
  b.use_window_rule = !b.use_window_rule;
  EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
  atomicity::InferOptions c = a;
  c.counted_cas = {"c", "b"};
  atomicity::InferOptions d = a;
  d.counted_cas = {"b", "c", "b"};  // order/duplicates don't matter
  EXPECT_EQ(options_fingerprint(c), options_fingerprint(d));
  EXPECT_NE(options_fingerprint(a), options_fingerprint(c));
  // The proc restriction is scheduling detail, never part of the address.
  atomicity::InferOptions e = a;
  e.only_procs = {"Deq"};
  EXPECT_EQ(options_fingerprint(a), options_fingerprint(e));
}

TEST(BatchDriver, ParseErrorReportedPerProgram) {
  std::vector<ProgramInput> inputs;
  inputs.push_back({"bad.synl", "proc P( {", {}, {}});
  ProgramInput good;
  good.name = "good.synl";
  good.source = std::string(corpus::get("nfq_prime").source);
  inputs.push_back(std::move(good));

  BatchDriver drv(DriverOptions{});
  BatchReport report = drv.run(inputs);
  ASSERT_EQ(report.programs.size(), 2u);
  EXPECT_EQ(report.programs[0].status, ProgramStatus::ParseError);
  EXPECT_TRUE(report.programs[0].procs.empty());
  EXPECT_FALSE(report.programs[0].diagnostics.empty());
  EXPECT_EQ(report.programs[1].status, ProgramStatus::Ok);
  EXPECT_EQ(report.metrics.parse_errors, 1u);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(BatchDriver, ExitCodeConvention) {
  {
    ProgramInput good;
    good.name = "good";
    good.source = std::string(corpus::get("nfq_prime").source);
    BatchDriver drv(DriverOptions{});
    BatchReport r = drv.run({good});
    EXPECT_EQ(r.exit_code(), 0);
  }
  {
    ProgramInput racy;
    racy.name = "racy";
    racy.source = std::string(corpus::get("racy_counter").source);
    BatchDriver drv(DriverOptions{});
    BatchReport r = drv.run({racy});
    EXPECT_GT(r.procs_not_atomic(), 0u);
    EXPECT_EQ(r.exit_code(), 1);
  }
}

TEST(BatchDriver, SarifListsRulesAndNonAtomicResults) {
  BatchDriver drv(DriverOptions{});
  BatchReport report = drv.run(corpus_inputs());
  std::string sarif = to_sarif(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("SYNAT001"), std::string::npos);  // non-atomic proc
  EXPECT_NE(sarif.find("SYNAT002"), std::string::npos);  // parse error rule
  EXPECT_NE(sarif.find("\"results\""), std::string::npos);
  EXPECT_NE(sarif.find("racy_counter"), std::string::npos);
}

TEST(BatchDriver, MetricsCountCorpus) {
  BatchDriver drv(DriverOptions{});
  BatchReport report = drv.run(corpus_inputs());
  EXPECT_EQ(report.metrics.programs, corpus::all().size());
  EXPECT_GT(report.metrics.procedures, report.metrics.programs);
  EXPECT_GE(report.metrics.variants, report.metrics.procedures);
  EXPECT_EQ(report.metrics.parse_errors, 0u);
  EXPECT_EQ(report.metrics.internal_errors, 0u);
}

TEST(BatchDriver, TimingsRenderOnlyWhenRequested) {
  // The stages block is rendered from the run's stage histograms, which
  // the metrics flag fills (`synat batch --timings` sets it).
  obs::set_flags(obs::kMetricsFlag);
  BatchDriver drv(DriverOptions{});
  BatchReport report = drv.run(corpus_inputs());
  obs::set_flags(0);
  const std::string parse = obs::stage_metric_name(obs::StageId::Parse);
  uint64_t parses = 0;
  for (const obs::Log2Sample& h : report.metrics.telemetry.summaries)
    if (h.name == parse) parses = h.count;
  EXPECT_EQ(parses, corpus::all().size()) << "one parse span per program";
  std::string plain = to_json(report);
  EXPECT_EQ(plain.find("\"stages\""), std::string::npos);
  RenderOptions ropts;
  ropts.timings = true;
  std::string timed = to_json(report, ropts);
  EXPECT_NE(timed.find("\"stages\""), std::string::npos);
  EXPECT_NE(timed.find("\"samples\": " + std::to_string(parses)),
            std::string::npos)
      << timed;
}

// --- Failure containment (DESIGN.md §3c) ----------------------------------

// One procedure fails to parse, one is fine. Recovery must keep the
// program's status Ok, analyze Good, and degrade only Bad.
constexpr const char* kMixedSource = R"(
  global int X;
  proc Bad() { X := := 1; }
  proc Good() { X := X + 1; }
)";

// Deq of nfq_prime has two exceptional variants, so max_variants = 1 trips
// its budget while AddNode and UpdateTail (one variant each) stay healthy.
ProgramInput nfq_prime_input(size_t max_variants = 0) {
  ProgramInput in;
  in.name = "corpus:nfq_prime";
  in.source = std::string(corpus::get("nfq_prime").source);
  for (auto c : corpus::get("nfq_prime").counted_cas)
    in.opts.counted_cas.emplace_back(c);
  in.opts.variant_opts.max_variants = max_variants;
  return in;
}

TEST(BatchDriver, RecoveredParseErrorDegradesOnlyBrokenProc) {
  ProgramInput in;
  in.name = "mixed.synl";
  in.source = kMixedSource;
  BatchDriver drv(DriverOptions{});
  BatchReport r = drv.run({in});
  ASSERT_EQ(r.programs.size(), 1u);
  EXPECT_EQ(r.programs[0].status, ProgramStatus::Ok);
  EXPECT_FALSE(r.programs[0].diagnostics.empty());  // the contained errors
  ASSERT_EQ(r.programs[0].procs.size(), 2u);
  const ProcReport& bad = *r.programs[0].procs[0];
  EXPECT_EQ(bad.name, "Bad");
  EXPECT_TRUE(bad.degraded);
  EXPECT_EQ(bad.degrade_kind, "parse");
  EXPECT_EQ(bad.atomicity, "unknown");
  const ProcReport& good = *r.programs[0].procs[1];
  EXPECT_EQ(good.name, "Good");
  EXPECT_FALSE(good.degraded);
  EXPECT_FALSE(good.atomicity.empty());
  EXPECT_NE(good.atomicity, "unknown");
  EXPECT_EQ(r.metrics.degraded, 1u);
  EXPECT_EQ(r.metrics.parse_errors, 0u);
  EXPECT_EQ(r.exit_code(), 1);
}

/// One procedure's report rendered on its own (with its provenance), so
/// procedures of runs under different options compare byte for byte. The
/// cache key names the options, so it is left out.
std::string proc_json(const std::shared_ptr<const ProcReport>& p) {
  auto unkeyed = std::make_shared<ProcReport>(*p);
  unkeyed->key = 0;
  BatchReport r;
  ProgramReport prog;
  prog.procs.push_back(std::move(unkeyed));
  r.programs.push_back(std::move(prog));
  RenderOptions ropts;
  ropts.provenance = true;
  return to_json(r, ropts);
}

TEST(BatchDriver, VariantBudgetDegradesOnlyExplodingProc) {
  for (bool provenance : {false, true}) {
    ProgramInput budgeted = nfq_prime_input(/*max_variants=*/1);
    ProgramInput unbudgeted = nfq_prime_input();
    budgeted.opts.provenance = unbudgeted.opts.provenance = provenance;
    BatchDriver drv(DriverOptions{});
    BatchReport r = drv.run({budgeted});
    BatchReport clean = drv.run({unbudgeted});
    ASSERT_EQ(r.programs.size(), 1u);
    EXPECT_EQ(r.programs[0].status, ProgramStatus::Ok);
    ASSERT_EQ(r.programs[0].procs.size(), clean.programs[0].procs.size());
    size_t degraded = 0;
    for (size_t i = 0; i < r.programs[0].procs.size(); ++i) {
      const auto& p = r.programs[0].procs[i];
      if (p->name == "Deq") {
        EXPECT_TRUE(p->degraded);
        EXPECT_EQ(p->degrade_kind, "max-variants");
        EXPECT_EQ(p->atomicity, "unknown");
        ++degraded;
      } else {
        // The exploding procedure's conservative clone stays in the
        // universe, so each healthy sibling's report is the unbudgeted one.
        EXPECT_FALSE(p->degraded) << p->name;
        EXPECT_EQ(proc_json(p), proc_json(clean.programs[0].procs[i]))
            << p->name << " provenance=" << provenance;
      }
    }
    EXPECT_EQ(degraded, 1u);
    EXPECT_EQ(r.metrics.degraded, 1u);
    EXPECT_EQ(r.exit_code(), 1);
  }
}

// A warm run whose only miss trips the budget: the engine classifies just
// that procedure, which degrades again (degraded reports are never cached),
// while the hits are served untouched.
TEST(BatchDriver, VariantBudgetMissLeavesCacheHitsUntouched) {
  DriverOptions opts;
  opts.use_cache = true;
  ResultCache cache;
  BatchDriver drv(opts, &cache);
  BatchReport cold = drv.run({nfq_prime_input(/*max_variants=*/1)});
  EXPECT_EQ(cold.metrics.cache_hits, 0u);
  EXPECT_EQ(cold.metrics.cache_misses, 3u);
  BatchReport warm = drv.run({nfq_prime_input(/*max_variants=*/1)});
  EXPECT_EQ(warm.metrics.cache_hits, 2u);    // AddNode, UpdateTail
  EXPECT_EQ(warm.metrics.cache_misses, 1u);  // Deq, never cached
  // Apart from the cache counters, the documents are identical.
  warm.metrics.cache_hits = warm.metrics.cache_misses = 0;
  cold.metrics.cache_hits = cold.metrics.cache_misses = 0;
  EXPECT_EQ(to_json(warm), to_json(cold));
  const auto& procs = warm.programs.at(0).procs;
  ASSERT_EQ(procs.size(), 3u);
  for (size_t i = 0; i < procs.size(); ++i) {
    if (procs[i]->name == "Deq") {
      EXPECT_TRUE(procs[i]->degraded);
      EXPECT_EQ(procs[i]->degrade_kind, "max-variants");
    } else {
      // The very objects the cold run inserted, not re-analyzed copies.
      EXPECT_EQ(procs[i], cold.programs.at(0).procs[i]) << procs[i]->name;
    }
  }
}

TEST(BatchDriver, JobsZeroClampsToHardwareConcurrency) {
  DriverOptions opts;
  opts.jobs = 0;
  BatchDriver drv(opts);
  BatchReport r = drv.run({nfq_prime_input()});
  EXPECT_GE(r.metrics.jobs, 1u);
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(BatchDriver, UnreadableInputIsLoadErrorAndBatchContinues) {
  ProgramInput missing;
  missing.name = "no/such/file.synl";
  missing.load_error = "cannot open input 'no/such/file.synl'";
  std::vector<ProgramInput> inputs;
  inputs.push_back(std::move(missing));
  inputs.push_back(nfq_prime_input());
  BatchDriver drv(DriverOptions{});
  BatchReport r = drv.run(inputs);
  ASSERT_EQ(r.programs.size(), 2u);
  EXPECT_EQ(r.programs[0].status, ProgramStatus::LoadError);
  ASSERT_FALSE(r.programs[0].diagnostics.empty());
  EXPECT_NE(r.programs[0].diagnostics[0].message.find("cannot open"),
            std::string::npos);
  EXPECT_EQ(r.programs[1].status, ProgramStatus::Ok);  // batch kept going
  EXPECT_EQ(r.metrics.load_errors, 1u);
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(BatchDriver, StrictModeEscalatesRecoverableFailures) {
  DriverOptions strict;
  strict.strict = true;
  {
    ProgramInput in;
    in.name = "mixed.synl";
    in.source = kMixedSource;
    BatchDriver drv(strict);
    BatchReport r = drv.run({in});
    EXPECT_EQ(r.programs[0].status, ProgramStatus::ParseError);
    EXPECT_EQ(r.exit_code(), 3);
  }
  {
    BatchDriver drv(strict);
    BatchReport r = drv.run({nfq_prime_input(/*max_variants=*/1)});
    EXPECT_EQ(r.programs[0].status, ProgramStatus::InternalError);
    EXPECT_EQ(r.exit_code(), 4);
  }
}

TEST(BatchDriver, DeadlineDegradesInsteadOfHanging) {
  // An unreachable deadline that is already armed must not change results;
  // jobs > 1 exercises watchdog registration from pool workers.
  DriverOptions opts;
  opts.deadline_ms = 600000;
  opts.jobs = 2;
  BatchDriver guarded(opts);
  BatchDriver plain(DriverOptions{});
  EXPECT_EQ(to_json(guarded.run({nfq_prime_input()})),
            to_json(plain.run({nfq_prime_input()})));
}

// The acceptance scenario: a batch over (a) a syntactically broken file
// with a healthy procedure, (b) a variant-budget-exceeding program, (c) a
// healthy program served from a corrupted cache snapshot. The batch must
// complete with exit 1, analyze the healthy program identically to a clean
// run, and list all three degradations.
TEST(BatchDriver, DegradedBatchAnalyzesHealthySubsetIdentically) {
  std::string path = testing::TempDir() + "synat_degraded.synatcache";
  std::vector<ProgramInput> inputs;
  ProgramInput mixed;
  mixed.name = "mixed.synl";
  mixed.source = kMixedSource;
  inputs.push_back(std::move(mixed));
  inputs.push_back(nfq_prime_input(/*max_variants=*/1));  // budget buster
  inputs.push_back(nfq_prime_input());                    // healthy

  // Clean run (no cache) for the healthy-subset comparison.
  BatchDriver clean(DriverOptions{});
  BatchReport clean_report = clean.run(inputs);

  // Build a snapshot of the healthy program's entries, then corrupt it.
  DriverOptions cached;
  cached.use_cache = true;
  {
    ResultCache warm;
    BatchDriver drv(cached, &warm);
    drv.run(inputs);
    ASSERT_TRUE(warm.save(path));
  }
  {
    // Flip a byte inside the first entry's payload (24-byte header, then
    // 8 key + 8 length) so its CRC no longer verifies.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(42);
    char c = static_cast<char>(f.get());
    f.seekp(42);
    f.put(static_cast<char>(c ^ 0x40));
  }

  ResultCache damaged;
  damaged.load(path);
  EXPECT_GT(damaged.rejected(), 0u);
  BatchDriver drv(cached, &damaged);
  BatchReport r = drv.run(inputs);
  EXPECT_EQ(r.exit_code(), 1);
  EXPECT_EQ(r.metrics.degraded, 2u);  // Bad (parse) + Deq (max-variants)
  EXPECT_GT(r.metrics.cache_rejected, 0u);

  // Every healthy procedure matches the clean run bit for bit: compare the
  // per-program reports in isolation (the full documents legitimately
  // differ in the metrics and degraded-cache sections).
  for (size_t i = 0; i < inputs.size(); ++i) {
    BatchReport lhs, rhs;
    lhs.programs.push_back(clean_report.programs[i]);
    rhs.programs.push_back(r.programs[i]);
    EXPECT_EQ(to_json(lhs), to_json(rhs)) << inputs[i].name;
  }

  // The degraded section of the JSON document names all three kinds.
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"max-variants\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"cache\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace synat::driver
