#include <gtest/gtest.h>

#include "synat/corpus/corpus.h"
#include "synat/mc/mc.h"
#include "synat/mc/props.h"
#include "synat/synl/parser.h"

namespace synat::mc {
namespace {

using interp::CompiledProgram;
using synl::Program;

struct Fixture {
  DiagEngine diags;
  Program prog;
  CompiledProgram cp;

  explicit Fixture(std::string_view src)
      : prog(synl::parse_and_check(src, diags)) {
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
    cp = interp::compile_program(prog, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
  }
};

/// Both canonical forms of two states agree: the reference serialization
/// and the checker's fast key.
void expect_same_identity(const CompiledProgram& cp, const State& a,
                          const State& b) {
  ModelChecker mc(cp, {});
  EXPECT_EQ(mc.canonicalize(a), mc.canonicalize(b));
  std::span<const uint64_t> ka = mc.canonical_key(a);
  std::vector<uint64_t> key_a(ka.begin(), ka.end());
  std::span<const uint64_t> kb = mc.canonical_key(b);
  EXPECT_EQ(key_a, std::vector<uint64_t>(kb.begin(), kb.end()));
}

TEST(Canonical, AllocationOrderIrrelevant) {
  // Two schedules that allocate the "same" heap in different orders must
  // canonicalize identically.
  Fixture f(R"(
    class Node { int v; }
    global Node A;
    global Node B;
    proc SetA() { A := new Node; }
    proc SetB() { B := new Node; }
  )");
  interp::Interp in(f.cp);
  std::string err;

  interp::State s1 = in.initial_state(
      {{f.cp.find_index("SetA"), {}}, {f.cp.find_index("SetB"), {}}});
  ASSERT_EQ(in.run_thread(s1, 0, &err), interp::StepResult::Done);
  ASSERT_EQ(in.run_thread(s1, 1, &err), interp::StepResult::Done);

  interp::State s2 = in.initial_state(
      {{f.cp.find_index("SetA"), {}}, {f.cp.find_index("SetB"), {}}});
  ASSERT_EQ(in.run_thread(s2, 1, &err), interp::StepResult::Done);
  ASSERT_EQ(in.run_thread(s2, 0, &err), interp::StepResult::Done);

  expect_same_identity(f.cp, s1, s2);
}

TEST(Canonical, GarbageIgnored) {
  Fixture f(R"(
    class Node { int v; }
    global Node G;
    proc WithGarbage() {
      local tmp := new Node in {
        G := new Node;
      }
    }
    proc Direct() { G := new Node; }
  )");
  interp::Interp in(f.cp);
  std::string err;
  interp::State s1 = in.initial_state({{f.cp.find_index("WithGarbage"), {}}});
  ASSERT_EQ(in.run_thread(s1, 0, &err), interp::StepResult::Done);
  interp::State s2 = in.initial_state({{f.cp.find_index("Direct"), {}}});
  ASSERT_EQ(in.run_thread(s2, 0, &err), interp::StepResult::Done);
  // The garbage `tmp` object must not differentiate the states.
  expect_same_identity(f.cp, s1, s2);
}

TEST(Canonical, DistinctStatesDistinctKeys) {
  // A different value, a different heap shape and a different pc each
  // separate two states in both forms.
  Fixture f(R"(
    class Node { int v; Node next; }
    global Node G;
    proc Link(int v) { G := new Node; G.v := v; G.next := new Node; }
  )");
  interp::Interp in(f.cp);
  std::string err;
  auto run = [&](int v) {
    interp::State s = in.initial_state({{f.cp.find_index("Link"), {Value::of_int(v)}}});
    EXPECT_EQ(in.run_thread(s, 0, &err), interp::StepResult::Done) << err;
    return s;
  };
  interp::State start = in.initial_state({{f.cp.find_index("Link"), {Value::of_int(1)}}});
  interp::State stepped = start;
  ASSERT_EQ(in.step(stepped, 0, &err), interp::StepResult::Ok);
  std::vector<interp::State> states = {run(1), run(2), start, stepped};
  ModelChecker mc(f.cp, {});
  for (size_t i = 0; i < states.size(); ++i) {
    for (size_t j = i + 1; j < states.size(); ++j) {
      EXPECT_NE(mc.canonicalize(states[i]), mc.canonicalize(states[j]));
      std::span<const uint64_t> ki = mc.canonical_key(states[i]);
      std::vector<uint64_t> key_i(ki.begin(), ki.end());
      std::span<const uint64_t> kj = mc.canonical_key(states[j]);
      EXPECT_NE(key_i, std::vector<uint64_t>(kj.begin(), kj.end()));
    }
  }
}

TEST(Mc, CountsStatesOfTinyRace) {
  Fixture f(R"(
    global int X;
    proc Set(int v) { X := v; }
  )");
  Options opts;
  ModelChecker mc(f.cp, opts);
  RunSpec spec;
  spec.threads = {{"Set", {Value::of_int(1)}, "", {}},
                  {"Set", {Value::of_int(2)}, "", {}}};
  Result r = mc.run(spec);
  EXPECT_FALSE(r.error_found) << r.error;
  EXPECT_GT(r.states, 4u);
  EXPECT_EQ(r.final_states, 2u);  // X==1 and X==2 endings
}

TEST(Mc, FindsAssertionViolation) {
  Fixture f(R"(
    global int X;
    proc Inc() {
      local t := X in {
        X := t + 1;
      }
    }
    proc Check() {
      assert(X < 2);
    }
  )");
  Options opts;
  ModelChecker mc(f.cp, opts);
  RunSpec spec;
  spec.threads = {{"Inc", {}, "", {}}, {"Inc", {}, "", {}}, {"Check", {}, "", {}}};
  Result r = mc.run(spec);
  EXPECT_TRUE(r.error_found);
  EXPECT_NE(r.error.find("assertion"), std::string::npos);
}

TEST(Mc, RacyCounterLosesUpdate) {
  // The classic lost update: final X can be 1 with two increments.
  Fixture f(corpus::get("racy_counter").source);
  Options opts;
  ModelChecker mc(f.cp, opts);
  int slot = mc.global_slot("C");
  ASSERT_GE(slot, 0);
  opts.final_check = [slot](const State& s, const Interp&)
      -> std::optional<std::string> {
    if (s.globals[static_cast<size_t>(slot)].i != 2) return "lost update";
    return std::nullopt;
  };
  ModelChecker mc2(f.cp, opts);
  RunSpec spec;
  spec.threads = {{"Inc", {}, "", {}}, {"Inc", {}, "", {}}};
  Result r = mc2.run(spec);
  EXPECT_TRUE(r.error_found);
  EXPECT_NE(r.error.find("lost update"), std::string::npos);
}

TEST(Mc, LlScCounterNeverLosesUpdate) {
  Fixture f(R"(
    global int X;
    proc Inc() {
      loop {
        local a := LL(X) in {
          if (SC(X, a + 1)) { return; }
        }
      }
    }
  )");
  Options opts;
  {
    ModelChecker probe(f.cp, opts);
    int slot = probe.global_slot("X");
    opts.final_check = [slot](const State& s, const Interp&)
        -> std::optional<std::string> {
      if (s.globals[static_cast<size_t>(slot)].i != 2) return "lost update";
      return std::nullopt;
    };
  }
  ModelChecker mc(f.cp, opts);
  RunSpec spec;
  spec.threads = {{"Inc", {}, "", {}}, {"Inc", {}, "", {}}};
  Result r = mc.run(spec);
  EXPECT_FALSE(r.error_found) << r.error;
  EXPECT_GT(r.final_states, 0u);
}

TEST(Mc, LockedCounterCorrect) {
  // locked_counter needs the lock object allocated: extend with Init.
  std::string src = std::string(corpus::get("locked_counter").source) +
                    "\nproc Init() { M := new LockObj; }\n";
  Fixture f(src);
  Options opts;
  {
    ModelChecker probe(f.cp, opts);
    int slot = probe.global_slot("C");
    opts.final_check = [slot](const State& s, const Interp&)
        -> std::optional<std::string> {
      if (s.globals[static_cast<size_t>(slot)].i != 2) return "lost update";
      return std::nullopt;
    };
  }
  ModelChecker mc(f.cp, opts);
  RunSpec spec;
  spec.global_init = "Init";
  spec.threads = {{"Inc", {}, "", {}}, {"Inc", {}, "", {}}};
  Result r = mc.run(spec);
  EXPECT_FALSE(r.error_found) << r.error;
}

// ---------------------------------------------------------------------------
// Reductions

struct NfqHarness {
  Fixture f;
  int value_field = -1, next_field = -1;

  NfqHarness(std::string_view corpus_name)
      : f(corpus::get(corpus_name).source) {
    synl::ClassId node = f.prog.find_class(f.prog.syms().lookup("Node"));
    value_field = f.prog.cls(node).field_index(f.prog.syms().lookup("Value"));
    next_field = f.prog.cls(node).field_index(f.prog.syms().lookup("Next"));
  }

  Result run(bool por, bool atomic, std::multiset<int64_t> expected,
             int producers = 2) {
    Options opts;
    opts.por = por;
    if (atomic) opts.atomic_procs = {"AddNode", "UpdateTail", "Deq"};
    ModelChecker probe(f.cp, opts);
    opts.invariant = queue_wellformed(probe, next_field);
    opts.final_check =
        queue_final_contents(probe, value_field, next_field, expected);
    ModelChecker mc(f.cp, opts);
    RunSpec spec;
    spec.global_init = "Init";
    for (int i = 0; i < producers; ++i)
      spec.threads.push_back({"AddNode", {Value::of_int(i + 1)}, "", {}});
    spec.threads.push_back({"UpdateTail", {}, "", {}});
    return mc.run(spec);
  }
};

TEST(McNfq, CorrectQueuePassesAllConfigurations) {
  NfqHarness h("nfq_prime_mc");
  Result plain = h.run(false, false, {1, 2});
  EXPECT_FALSE(plain.error_found) << plain.error;
  EXPECT_GT(plain.final_states, 0u);

  Result por = h.run(true, false, {1, 2});
  EXPECT_FALSE(por.error_found) << por.error;

  Result atomic = h.run(false, true, {1, 2});
  EXPECT_FALSE(atomic.error_found) << atomic.error;

  // The reductions must actually reduce.
  EXPECT_LT(por.states, plain.states);
  EXPECT_LT(atomic.states, por.states);
}

TEST(McNfq, BuggyQueueCaughtWithAndWithoutAtomic) {
  NfqHarness h("nfq_prime_bug_mc");
  Result plain = h.run(false, false, {1, 2});
  EXPECT_TRUE(plain.error_found);
  Result atomic = h.run(false, true, {1, 2});
  EXPECT_TRUE(atomic.error_found);
}

TEST(McNfq, ReductionsPreserveFinalStateContents) {
  // With a single producer every configuration must agree that the queue
  // ends with exactly {1}.
  NfqHarness h("nfq_prime_mc");
  for (bool por : {false, true}) {
    for (bool atomic : {false, true}) {
      Result r = h.run(por, atomic, {1}, /*producers=*/1);
      EXPECT_FALSE(r.error_found)
          << "por=" << por << " atomic=" << atomic << ": " << r.error;
      EXPECT_GT(r.final_states, 0u);
    }
  }
}

TEST(McGh, AllConfigurationsAgreeOnOutcome) {
  Fixture f(corpus::get("gh_mc").source);
  for (bool por : {false, true}) {
    for (bool atomic : {false, true}) {
      Options opts;
      opts.array_size = 4;  // groups are indexed 1..3
      opts.por = por;
      if (atomic) opts.atomic_procs = {"Apply"};
      ModelChecker mc(f.cp, opts);
      RunSpec spec;
      spec.global_init = "Init";
      for (int g = 1; g <= 2; ++g)
        spec.threads.push_back(
            {"Apply", {Value::of_int(g)}, "TInit", {}});
      Result r = mc.run(spec);
      EXPECT_FALSE(r.error_found)
          << "por=" << por << " atomic=" << atomic << ": " << r.error;
      EXPECT_GT(r.final_states, 0u);
    }
  }
}

}  // namespace
}  // namespace synat::mc
