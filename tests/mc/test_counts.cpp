// Exact state counts of the model-checking experiments (EXPERIMENTS.md E2
// and E5). Any change to the interpreter, the state encoding or the seen
// set must leave every count here unchanged: the counts are the state
// identity the reductions are measured against.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "synat/corpus/corpus.h"
#include "synat/mc/mc.h"
#include "synat/mc/props.h"
#include "synat/synl/parser.h"

namespace synat::mc {
namespace {

struct Program {
  DiagEngine diags;
  synl::Program prog;
  interp::CompiledProgram cp;

  explicit Program(const char* corpus_name)
      : prog(synl::parse_and_check(corpus::get(corpus_name).source, diags)),
        cp(interp::compile_program(prog, diags)) {
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
  }
};

/// E5: the Gao-Hesselink driver, `threads` Apply threads on groups 1..3,
/// as `bench_sec63_spin` runs it.
Result run_gh(int threads, bool por, bool atomic,
              uint64_t max_states = 100'000'000) {
  static const Program p("gh_mc");
  Options opts;
  opts.array_size = 4;  // groups 1..3
  opts.por = por;
  opts.max_states = max_states;
  if (atomic) opts.atomic_procs = {"Apply"};
  ModelChecker checker(p.cp, opts);
  RunSpec spec;
  spec.global_init = "Init";
  for (int g = 1; g <= threads; ++g)
    spec.threads.push_back(
        {"Apply", {Value::of_int((g - 1) % 3 + 1)}, "TInit", {}});
  return checker.run(spec);
}

/// E2: NFQ' with the queue invariant and, without consumers, the
/// final-contents check, as `bench_table2_tvla` runs it.
Result run_nfq(const char* corpus_name, bool atomic, int producers,
               int consumers) {
  Program p(corpus_name);
  synl::ClassId node = p.prog.find_class(p.prog.syms().lookup("Node"));
  int value_field = p.prog.cls(node).field_index(p.prog.syms().lookup("Value"));
  int next_field = p.prog.cls(node).field_index(p.prog.syms().lookup("Next"));
  Options opts;
  opts.max_states = 2'000'000;
  if (atomic) opts.atomic_procs = {"AddNode", "UpdateTail", "Deq"};
  ModelChecker probe(p.cp, opts);
  opts.invariant = queue_wellformed(probe, next_field);
  if (consumers == 0) {
    std::multiset<int64_t> expected;
    for (int i = 1; i <= producers; ++i) expected.insert(i);
    opts.final_check =
        queue_final_contents(probe, value_field, next_field, expected);
  }
  ModelChecker checker(p.cp, opts);
  RunSpec spec;
  spec.global_init = "Init";
  for (int i = 0; i < producers; ++i)
    spec.threads.push_back({"AddNode", {Value::of_int(i + 1)}, "", {}});
  for (int i = 0; i < consumers; ++i)
    spec.threads.push_back({"Deq", {}, "", {}});
  for (int i = 0; i < producers - 1; ++i)
    spec.threads.push_back({"UpdateTail", {}, "", {}});
  return checker.run(spec);
}

void expect_exhaustive(const Result& r, uint64_t states) {
  EXPECT_FALSE(r.error_found) << r.error;
  EXPECT_FALSE(r.hit_state_limit);
  EXPECT_EQ(r.states, states);
  EXPECT_GT(r.final_states, 0u);
}

TEST(McCounts, E5TwoThreads) {
  expect_exhaustive(run_gh(2, false, false), 25'773);
  expect_exhaustive(run_gh(2, true, false), 11'814);
  expect_exhaustive(run_gh(2, false, true), 580);
  expect_exhaustive(run_gh(2, true, true), 580);
}

TEST(McCounts, E5ThreeThreadsAtomic) {
  expect_exhaustive(run_gh(3, false, true), 1'736);
}

TEST(McCounts, E2TwoAddNode) {
  expect_exhaustive(run_nfq("nfq_prime_mc", false, 2, 0), 22'994);
  expect_exhaustive(run_nfq("nfq_prime_mc", true, 2, 0), 316);
}

TEST(McCounts, E2ThreeAddNodeAtomic) {
  expect_exhaustive(run_nfq("nfq_prime_mc", true, 3, 0), 3'590);
}

TEST(McCounts, E2TwoAddNodeOneDeqAtomic) {
  expect_exhaustive(run_nfq("nfq_prime_mc", true, 2, 1), 1'174);
}

TEST(McCounts, E2IncorrectAddNodeFoundBothWays) {
  for (bool atomic : {false, true}) {
    Result r = run_nfq("nfq_prime_bug_mc", atomic, 2, 0);
    EXPECT_TRUE(r.error_found) << "atomic=" << atomic;
    EXPECT_EQ(r.states, 62u) << "atomic=" << atomic;
  }
}

TEST(McCounts, StateLimitStopsAtExactlyMaxStates) {
  // The limit counts states, and the flag means a further distinct state
  // exists: one below the exhaustive count hits it, the count itself not.
  Result under = run_gh(2, false, false, 25'772);
  EXPECT_EQ(under.states, 25'772u);
  EXPECT_TRUE(under.hit_state_limit);
  Result exact = run_gh(2, false, false, 25'773);
  EXPECT_EQ(exact.states, 25'773u);
  EXPECT_FALSE(exact.hit_state_limit);
}

TEST(Mc, ConcurrentCheckersAgree) {
  // Checkers on different threads share the compiled program and nothing
  // else: each keeps its own state buffers.
  constexpr int kThreads = 4;
  uint64_t states[kThreads] = {};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&states, i] { states[i] = run_gh(2, false, false).states; });
  for (std::thread& t : threads) t.join();
  for (uint64_t n : states) EXPECT_EQ(n, 25'773u);
}

}  // namespace
}  // namespace synat::mc
