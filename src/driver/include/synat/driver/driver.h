// Batch analysis driver: runs the full per-procedure pipeline (sema →
// CFG/liveness → purity/matching/local-conditions → variant enumeration →
// mover assignment → type propagation → block partitioning) over many
// programs on a fixed-size thread pool, with optional content-addressed
// memoization of per-procedure results.
//
// Concurrency model: one task per program. A task parses its program
// once, looks up every procedure's cache entry, and runs one InferEngine
// on that parse with InferOptions::only_procs set to the misses (every
// procedure when there is no cache). The conflict universe stays
// whole-program, so each result equals that of a run classifying every
// procedure. No AST is ever shared between threads: infer_atomicity
// appends variants to the Program it analyzes, and each task owns its
// own. Parallelism is across programs only. Output assembly is
// index-addressed, which makes the rendered documents byte-identical for
// any --jobs value.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "synat/atomicity/infer.h"
#include "synat/driver/cache.h"
#include "synat/driver/report.h"
#include "synat/driver/watchdog.h"

namespace synat::obs {
class EventLog;
}

namespace synat::driver {

/// One program to analyze.
struct ProgramInput {
  std::string name;    ///< display name (file path or corpus:<name>)
  std::string source;  ///< SYNL source text
  atomicity::InferOptions opts;
  /// When non-empty, the input could not be read; the driver reports the
  /// program as ProgramStatus::LoadError (with this message) without
  /// scheduling any work, and the rest of the batch proceeds.
  std::string load_error;
};

struct DriverOptions {
  /// Worker threads; 1 runs inline on the calling thread, 0 uses one
  /// worker per hardware thread.
  unsigned jobs = 1;
  /// Memoize per-procedure reports in `cache` (or an internal cache).
  bool use_cache = false;
  /// Wall-clock deadline per program in milliseconds; 0 disables it. It
  /// caps the program's one engine run (and, with the cache on, its
  /// fingerprint pass). On a trip every procedure the engine was
  /// classifying is reported as degraded ("deadline"); cache hits keep
  /// their reports and the batch proceeds. Deadline trips depend on
  /// machine speed, so results are only byte-deterministic when no program
  /// trips (or the deadline is 0).
  uint64_t deadline_ms = 0;
  /// Escalate instead of degrading: recovered parse errors fail the
  /// program (ParseError) and budget/deadline trips are internal errors.
  bool strict = false;
  /// Run every program in a sandboxed one-shot worker process (DESIGN.md
  /// §3d). A worker death of any kind — SIGSEGV, OOM kill, stall — is
  /// contained as that one program's ProgramStatus::Degraded verdict.
  /// Requires that no other threads exist when run() is called (workers
  /// are plain forks). `jobs` caps concurrent workers; the cache is not
  /// consulted (workers are separate address spaces).
  bool isolate = false;
  /// Address-space cap per worker in MiB (RLIMIT_AS); 0 = unlimited.
  /// Only meaningful with `isolate`.
  unsigned max_rss_mb = 0;
  /// Re-dispatches of a program whose worker died before retrying turns
  /// into a Degraded verdict (exponential backoff between attempts).
  unsigned retries = 1;
  /// Write-ahead journal file for crash-resumable batches; empty disables
  /// journaling. Works with and without `isolate`.
  std::string journal_path;
  /// Replay finished programs from `journal_path` before analyzing. A
  /// journal from a different input/option set is rejected whole (counted
  /// in Metrics::journal_rejected); the run proceeds cold.
  bool resume = false;
  /// Wide-event sink (DESIGN.md §3i): when set, run() appends one event
  /// per program, in input order, after the report is assembled. Not owned.
  /// Enabling events also times each program's parse/analyze/report stages
  /// (clock reads even with the obs flags off).
  obs::EventLog* events = nullptr;
};

/// Fingerprint of the analysis options that affect results; part of every
/// cache key.
uint64_t options_fingerprint(const atomicity::InferOptions& opts);

class BatchDriver {
 public:
  /// `cache` may be null; when `opts.use_cache` is set and no cache is
  /// given, the driver uses a private one (warm within a single run() —
  /// pass an external cache to keep it warm across runs).
  explicit BatchDriver(DriverOptions opts, ResultCache* cache = nullptr);
  ~BatchDriver();

  BatchDriver(const BatchDriver&) = delete;
  BatchDriver& operator=(const BatchDriver&) = delete;

  /// Analyzes every input and returns the aggregated report. Safe to call
  /// repeatedly; the cache persists across calls.
  BatchReport run(const std::vector<ProgramInput>& inputs);

  ResultCache& cache() { return *cache_; }

 private:
  /// This task's own cache lookups, summed into the run's Metrics.
  struct CacheCounts {
    size_t hits = 0;
    size_t misses = 0;
  };

  /// One program's stage wall times (ns): its wide event's fields.
  struct StageTally {
    uint64_t parse_ns = 0;
    uint64_t analyze_ns = 0;
    uint64_t report_ns = 0;
  };

  /// `tally` is null unless a wide-event sink is attached; only this
  /// program's task writes it.
  CacheCounts run_program_task(const ProgramInput& input, size_t index,
                               ReportSink& sink, StageTally* tally);

  DriverOptions opts_;
  ResultCache* cache_;
  ResultCache owned_cache_;
  /// Created lazily by run() when deadline_ms > 0.
  std::unique_ptr<Watchdog> watchdog_;
};

}  // namespace synat::driver
