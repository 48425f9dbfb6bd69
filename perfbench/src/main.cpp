// synat benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//       Runs one workload and prints, as its last line, one JSON object
//       {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1.
//       Exits 1 when any output disagrees with the answer file,
//       perfbench/expected.json (relative to the working directory).
//   perfbench --self-test
//       Checks the generator (same seed, same bytes; other seed, other
//       bytes, same answers) and that a wrong answer makes a run fail.
//   perfbench --write-inputs DIR --seed N
//       Writes the seed's wide and fleet programs as .synl files with a
//       MANIFEST of `synat batch` command lines that replay them.
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "expected.h"
#include "gen.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Host metadata for the log, with a warning when the build is not
/// optimized (timings from such a build say nothing about the program).
void print_host() {
  struct utsname u {};
  uname(&u);
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::printf("host: nproc=%u cpu=\"%s\" kernel=\"%s %s\" build=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              u.sysname, u.release, build.c_str());
  if (build != "Release" && build != "RelWithDebInfo")
    std::printf("WARNING: build type '%s' is not optimized; timings are not "
                "comparable\n", build.c_str());
}

void print_result(bool correct, const Outcome& o) {
  for (const Metric& m : o.metrics)
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + num +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// All generated inputs of a seed as one byte string.
std::string inputs_of(uint64_t seed, const Expected& e) {
  std::string all;
  auto add = [&](const GenProgram& g) {
    all += "== " + g.name + "\n" + g.source;
    for (const std::string& c : g.counted) all += "counted " + c + "\n";
  };
  for (const GenProgram& g : gen_wide(seed)) add(g);
  for (const GenProgram& g : gen_fleet(seed)) add(g);
  for (int c = 0; c < 2; ++c) {
    EditSession s = gen_session(seed, c, 60, e.serve);
    add(s.initial);
    for (const EditRequest& r : s.requests) {
      all += std::string("-- ") + to_string(r.kind) + " " +
             std::to_string(r.expect_reanalyzed) + "\n";
      add(r.program);
    }
  }
  return all;
}

/// The expected verdict of every generated procedure, in a canonical
/// order (a multiset): what must not change between seeds.
std::vector<std::string> answers_of(uint64_t seed, const Expected& e) {
  std::vector<std::string> out;
  auto add = [&](const GenProgram& g) {
    for (const ProcOrigin& o : g.procs)
      out.push_back(o.shape + "." + o.original + "=" +
                    (e.verdicts.at(o.shape).at(o.original) ? "1" : "0"));
  };
  for (const GenProgram& g : gen_wide(seed)) add(g);
  for (const GenProgram& g : gen_fleet(seed)) add(g);
  for (int c = 0; c < 2; ++c) add(gen_session(seed, c, 60, e.serve).initial);
  std::sort(out.begin(), out.end());
  return out;
}

int self_test(const Expected& expected) {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  expect(inputs_of(7, expected) == inputs_of(7, expected),
         "the same seed gives byte-identical inputs");
  expect(inputs_of(7, expected) != inputs_of(8, expected),
         "different seeds give different inputs");
  expect(answers_of(7, expected) == answers_of(8, expected),
         "different seeds give the same expected verdicts");

  auto run = [&](const Expected& e, const char* workload, uint64_t seed) {
    Checker checker(e);
    RunOptions ro;
    ro.workload = workload;
    ro.seed = seed;
    ro.seconds = 0.01;  // one pass, session or round
    run_workload(ro, e, checker);
    for (size_t i = 0; i < checker.errors().size() && i < 3; ++i)
      std::printf("      %s\n", checker.errors()[i].c_str());
    return checker.mismatches();
  };
  for (uint64_t seed : {7, 8}) {
    for (const char* w : {"program_fleet", "wide_program", "serve_edit_session"}) {
      std::string what = std::string(w) + " seed " + std::to_string(seed) +
                         " matches every answer";
      expect(run(expected, w, seed) == 0, what.c_str());
    }
  }
  expect(run(expected, "mc_explore", 7) == 0, "mc_explore matches every pinned count");

  Expected wrong = expected;
  wrong.verdicts["racy_counter"]["Get"] = false;
  expect(run(wrong, "program_fleet", 7) > 0, "a wrong verdict fails the fleet run");
  wrong = expected;
  wrong.verdicts["nfq_prime"]["Deq"] = false;
  expect(run(wrong, "wide_program", 7) > 0, "a wrong verdict fails the wide run");
  wrong = expected;
  wrong.serve.edit = 2;
  expect(run(wrong, "serve_edit_session", 7) > 0,
         "a wrong procedures_reanalyzed answer fails the serve run");
  wrong = expected;
  wrong.mc["e5_2t_por"].states += 1;
  expect(run(wrong, "mc_explore", 7) > 0, "a wrong state count fails the mc run");
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n"
               "       perfbench --write-inputs DIR --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions ro;
  std::string write_dir;
  bool selftest = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--self-test") {
      selftest = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--write-inputs") &&
               (v = value()) != nullptr) {
      if (a == "--workload") {
        ro.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        ro.seed = std::strtoull(v, nullptr, 10);
      } else if (a == "--seconds") {
        ro.seconds = std::atof(v);
      } else if (a == "--trace") {
        ro.trace = std::strcmp(v, "0") != 0;
      } else {
        write_dir = v;
      }
    } else {
      return usage();
    }
  }

  Expected expected;
  std::string err;
  if (!load_expected("perfbench/expected.json", expected, err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  if (selftest) return self_test(expected);
  if (!write_dir.empty()) {
    std::vector<GenProgram> all = gen_wide(ro.seed);
    for (GenProgram& g : gen_fleet(ro.seed)) all.push_back(std::move(g));
    // Sessions: the initial program and the first requests of each client,
    // in order, with the re-analysis each request expects.
    std::vector<std::string> notes(all.size());
    for (int c = 0; c < 2; ++c) {
      EditSession s = gen_session(ro.seed, c, 40, expected.serve);
      const std::string prefix = "session_" + std::to_string(c) + "_";
      s.initial.name = prefix + "000.synl";
      all.push_back(s.initial);
      notes.push_back("client " + std::to_string(c) + " initial program");
      for (size_t i = 0; i < s.requests.size(); ++i) {
        GenProgram g = s.requests[i].program;
        char num[24];
        std::snprintf(num, sizeof num, "%03zu", i + 1);
        g.name = prefix + num + ".synl";
        all.push_back(std::move(g));
        notes.push_back(std::string("client ") + std::to_string(c) + " request " +
                        num + ": " + to_string(s.requests[i].kind) +
                        ", expects " + std::to_string(s.requests[i].expect_reanalyzed) +
                        " procedures re-analyzed");
      }
    }
    if (!write_programs(write_dir, all, notes)) {
      std::fprintf(stderr, "perfbench: cannot write to %s\n", write_dir.c_str());
      return 2;
    }
    std::printf("wrote %zu programs to %s\n", all.size(), write_dir.c_str());
    return 0;
  }
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == ro.workload;
  if (!have_workload || !known || !(ro.seconds > 0)) return usage();

  print_host();
  Checker checker(expected);
  Outcome o = run_workload(ro, expected, checker);
  for (const std::string& n : o.notes)
    std::printf("%s: %s\n", ro.workload.c_str(), n.c_str());
  for (const std::string& e : checker.errors())
    std::printf("MISMATCH: %s\n", e.c_str());
  const bool correct = checker.mismatches() == 0;
  print_result(correct, o);
  return correct ? 0 : 1;
}
