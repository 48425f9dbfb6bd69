// E5 — Section 6.3 SPIN experiment: reachable states for the large-object
// algorithm driver under four configurations.
//
// Paper (SPIN, 3 threads, 3 int fields each its own group):
//   no optimization            4,069,080
//   partial-order reduction      452,043
//   atomic (from the analysis)    69,215
//   both                           4,619
//
// Our substrate is the synat checker. The full 4-configuration table is
// produced for 2 threads. For 3 threads a routine run reports the
// unreduced configurations as capped lower bounds next to the exact
// reduced counts; pass 3 as argv[1] to explore them exhaustively (7.7M
// states; about 20 s and 200 MB on a 4-core Xeon VM). The paper's ordering
// none > POR > atomic >= both is checked either way.
// Note one divergence: with every procedure declared atomic our checker
// fully serializes execution, so "both" cannot improve on "atomic"
// (SPIN's statement-level atomics still left room for its POR).
//
// Every configuration's states, transitions, time, states/s and seen-table
// bytes per state are written to BENCH_mc.json in the working directory
// (or to $SYNAT_BENCH_OUT).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "synat/corpus/corpus.h"
#include "synat/mc/mc.h"
#include "synat/support/text.h"
#include "synat/synl/parser.h"

using namespace synat;

namespace {

mc::Result run_cfg(const interp::CompiledProgram& cp, int threads, bool por,
                   bool atomic, uint64_t cap) {
  mc::Options opts;
  opts.array_size = 4;  // groups 1..3
  opts.por = por;
  opts.max_states = cap;
  if (atomic) opts.atomic_procs = {"Apply"};
  mc::ModelChecker checker(cp, opts);
  mc::RunSpec spec;
  spec.global_init = "Init";
  for (int g = 1; g <= threads; ++g)
    spec.threads.push_back(
        {"Apply", {mc::Value::of_int((g - 1) % 3 + 1)}, "TInit", {}});
  return checker.run(spec);
}

struct Measured {
  int threads;
  const char* config;
  mc::Result r;
};

/// "model name" from /proc/cpuinfo: the timings mean nothing without it.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t start = line.find_first_not_of(" \t", line.find(':') + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

void write_bench_json(const char* path, const std::vector<Measured>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"mc_sec63_spin\",\n  \"cpu_model\": \"%s\",\n"
               "  \"configurations\": [\n", cpu_model().c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const mc::Result& r = rows[i].r;
    const double states = static_cast<double>(r.states);
    std::fprintf(f,
                 "    {\"threads\": %d, \"config\": \"%s\", \"states\": %llu, "
                 "\"transitions\": %llu, \"exhaustive\": %s, \"seconds\": %.3f, "
                 "\"states_per_s\": %.0f, \"seen_bytes_per_state\": %.2f}%s\n",
                 rows[i].threads, rows[i].config,
                 static_cast<unsigned long long>(r.states),
                 static_cast<unsigned long long>(r.transitions),
                 r.hit_state_limit ? "false" : "true", r.seconds,
                 r.seconds > 0 ? states / r.seconds : 0.0,
                 static_cast<double>(r.seen_bytes) / states,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== E5 (paper Section 6.3): state counts for the GH driver ==\n");
  std::printf("(paper used SPIN, 3 threads: 4,069,080 / 452,043 / 69,215 / "
              "4,619)\n\n");

  DiagEngine diags;
  synl::Program prog = synl::parse_and_check(corpus::get("gh_mc").source, diags);
  if (diags.has_errors()) {
    std::printf("front-end errors:\n%s", diags.dump().c_str());
    return 1;
  }
  interp::CompiledProgram cp = interp::compile_program(prog, diags);

  struct Cfg {
    const char* label;
    const char* key;
    bool por, atomic;
    uint64_t paper;
  };
  const Cfg cfgs[] = {
      {"no optimization", "none", false, false, 4069080},
      {"partial-order reduction", "por", true, false, 452043},
      {"atomic (analysis-inferred)", "atomic", false, true, 69215},
      {"both", "both", true, true, 4619},
  };

  bool ok = true;
  std::vector<Measured> measured;

  // Full table, 2 threads.
  std::printf("-- 2 threads (exhaustive) --\n");
  std::printf("| %-28s | %12s | %8s |\n", "configuration", "states", "time");
  uint64_t states2[4];
  int i = 0;
  for (const Cfg& c : cfgs) {
    mc::Result r = run_cfg(cp, 2, c.por, c.atomic, 100'000'000);
    if (r.error_found) {
      std::printf("UNEXPECTED ERROR (%s): %s\n", c.label, r.error.c_str());
      ok = false;
    }
    states2[i++] = r.states;
    measured.push_back({2, c.key, r});
    std::printf("| %-28s | %12s | %7.2fs |\n", c.label,
                with_commas(r.states).c_str(), r.seconds);
  }
  ok &= states2[0] > states2[1] && states2[1] > states2[2] &&
        states2[2] >= states2[3];
  ok &= states2[1] > states2[2] * 4;  // atomic clearly beats POR

  // 3 threads: unreduced configurations as capped lower bounds.
  int full_threads = argc > 1 ? std::atoi(argv[1]) : 0;
  const uint64_t cap = full_threads == 3 ? 100'000'000ull : 300'000ull;
  std::printf("\n-- 3 threads (paper's workload; unreduced runs %s) --\n",
              full_threads == 3 ? "exhaustive" : "capped at 300,000 states");
  std::printf("| %-28s | %14s | %12s | %8s |\n", "configuration", "states",
              "paper", "time");
  i = 0;
  uint64_t states3[4];
  for (const Cfg& c : cfgs) {
    mc::Result r = run_cfg(cp, 3, c.por, c.atomic, cap);
    states3[i++] = r.states;
    measured.push_back({3, c.key, r});
    std::string cell = with_commas(r.states);
    if (r.hit_state_limit) cell = ">= " + cell + " (cap)";
    std::printf("| %-28s | %14s | %12s | %7.2fs |\n", c.label, cell.c_str(),
                with_commas(c.paper).c_str(), r.seconds);
    if (r.error_found) {
      std::printf("UNEXPECTED ERROR (%s): %s\n", c.label, r.error.c_str());
      ok = false;
    }
  }
  // The reduced configurations must finish far below the unreduced bound.
  ok &= states3[2] * 10 < states3[0];
  ok &= states3[2] >= states3[3];

  std::printf("\nordering none > POR > atomic >= both, atomic >> none: %s\n",
              ok ? "PASS" : "FAIL");
  const char* out = std::getenv("SYNAT_BENCH_OUT");
  write_bench_json(out ? out : "BENCH_mc.json", measured);
  return ok ? 0 : 1;
}
