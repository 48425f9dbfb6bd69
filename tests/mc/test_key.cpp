// The checker's fast canonical key against the reference serialization.
//
// An independent DFS over the E5 and E2 state graphs, deduplicated by
// `canonicalize()`, computes both forms for every successor it generates,
// duplicates included. Fast-equal must coincide with reference-equal: a
// fast key shared by two reference-distinct states would merge them in the
// seen set, and two fast keys for one reference state would split it.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>

#include "synat/corpus/corpus.h"
#include "synat/mc/mc.h"
#include "synat/mc/props.h"
#include "synat/synl/parser.h"

namespace synat::mc {
namespace {

using interp::StepResult;

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

struct Audit {
  size_t distinct = 0;     ///< reference-distinct states reached
  size_t successors = 0;   ///< successors generated, duplicates included
  size_t mismatches = 0;
  std::set<std::string> reached;  ///< reference forms of reached states
};

/// Explores every schedule of `spec` (or, with `por`, the schedules the
/// checker's ample-set reduction keeps), keyed by the reference form.
Audit audit(const interp::CompiledProgram& cp, const Options& opts,
            const RunSpec& spec, bool por) {
  ModelChecker mc(cp, opts);
  const Interp& in = mc.interp();
  std::vector<interp::ThreadSpec> specs;
  for (const ThreadPlan& p : spec.threads)
    specs.push_back({cp.find_index(p.proc), p.args});
  interp::State init = in.initial_state(specs);
  std::string err;
  auto setup = [&](int tid, const std::string& proc,
                   const std::vector<Value>& args) {
    in.start_thread(init, tid, cp.find_index(proc), args);
    EXPECT_EQ(in.run_thread(init, tid, &err), StepResult::Done) << err;
    in.start_thread(init, tid, specs[tid].proc, specs[tid].args);
  };
  if (!spec.global_init.empty()) setup(0, spec.global_init, {});
  for (size_t tid = 0; tid < spec.threads.size(); ++tid)
    if (!spec.threads[tid].init_proc.empty())
      setup(static_cast<int>(tid), spec.threads[tid].init_proc,
            spec.threads[tid].init_args);

  Audit a;
  std::unordered_map<std::string, std::vector<uint64_t>> fast_of;
  std::map<std::vector<uint64_t>, std::string> ref_of;
  std::vector<interp::State> todo;
  auto visit = [&](interp::State s) {
    std::string ref = mc.canonicalize(s);
    std::span<const uint64_t> key = mc.canonical_key(s);
    std::vector<uint64_t> fast(key.begin(), key.end());
    auto [rf, ref_new] = fast_of.emplace(ref, fast);
    auto [fr, fast_new] = ref_of.emplace(fast, ref);
    if (rf->second != fast || fr->second != ref) ++a.mismatches;
    if (ref_new != fast_new) ++a.mismatches;
    if (!ref_new) return;
    ++a.distinct;
    a.reached.insert(std::move(ref));
    todo.push_back(std::move(s));
  };
  visit(init);
  while (!todo.empty()) {
    interp::State s = std::move(todo.back());
    todo.pop_back();
    const int n = static_cast<int>(s.threads.size());
    std::vector<int> tids;
    for (int tid = 0; tid < n; ++tid)
      if (in.runnable(s, tid)) tids.push_back(tid);
    if (por) {
      for (int tid : tids) {
        if (in.next_insn_invisible(s, tid)) {
          tids = {tid};
          break;
        }
      }
    }
    for (int tid : tids) {
      interp::State succ = s;
      StepResult r = in.step(succ, tid, &err);
      if (r != StepResult::Ok && r != StepResult::Stuck) continue;
      ++a.successors;
      visit(std::move(succ));
    }
  }
  return a;
}

/// The reference forms of the states a checker run visits.
std::set<std::string> checker_states(const interp::CompiledProgram& cp,
                                     Options opts, const RunSpec& spec,
                                     Result* result) {
  std::set<std::string> out;
  ModelChecker* checker = nullptr;
  StateCheck inner = opts.invariant;
  opts.invariant = [&](const State& s, const Interp& in)
      -> std::optional<std::string> {
    out.insert(checker->canonicalize(s));
    return inner ? inner(s, in) : std::nullopt;
  };
  ModelChecker mc(cp, opts);
  checker = &mc;
  *result = mc.run(spec);
  return out;
}

void expect_agrees(const interp::CompiledProgram& cp, const Options& opts,
                   const RunSpec& spec, uint64_t pinned, bool stops_at_error) {
  Audit a = audit(cp, opts, spec, opts.por);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_GT(a.successors, a.distinct);  // duplicates were compared too
  Result r;
  std::set<std::string> seen = checker_states(cp, opts, spec, &r);
  EXPECT_EQ(r.error_found, stops_at_error) << r.error;
  EXPECT_EQ(r.states, pinned);
  EXPECT_EQ(seen.size(), r.states);
  for (const std::string& s : seen) EXPECT_TRUE(a.reached.count(s));
  if (!stops_at_error) {
    EXPECT_EQ(a.distinct, r.states);
  }
}

RunSpec gh_spec() {
  RunSpec spec;
  spec.global_init = "Init";
  for (int g = 1; g <= 2; ++g)
    spec.threads.push_back({"Apply", {Value::of_int(g)}, "TInit", {}});
  return spec;
}

/// E2's property checks: the queue invariant and final contents {1, 2}.
Options nfq_checks(const Program& p) {
  const synl::ClassId node = p.prog.find_class(p.prog.syms().lookup("Node"));
  const synl::ClassInfo& cls = p.prog.cls(node);
  const int value_field = cls.field_index(p.prog.syms().lookup("Value"));
  const int next_field = cls.field_index(p.prog.syms().lookup("Next"));
  Options opts;
  ModelChecker probe(p.cp, opts);
  opts.invariant = queue_wellformed(probe, next_field);
  opts.final_check = queue_final_contents(probe, value_field, next_field, {1, 2});
  return opts;
}

RunSpec nfq_spec() {
  RunSpec spec;
  spec.global_init = "Init";
  spec.threads = {{"AddNode", {Value::of_int(1)}, "", {}},
                  {"AddNode", {Value::of_int(2)}, "", {}},
                  {"UpdateTail", {}, "", {}}};
  return spec;
}

TEST(CanonicalKey, MatchesReferenceOnE5TwoThreads) {
  Program p("gh_mc");
  Options opts;
  opts.array_size = 4;
  expect_agrees(p.cp, opts, gh_spec(), 25'773, false);
  opts.por = true;
  expect_agrees(p.cp, opts, gh_spec(), 11'814, false);
}

TEST(CanonicalKey, MatchesReferenceOnE2TwoAddNode) {
  Program p("nfq_prime_mc");
  expect_agrees(p.cp, nfq_checks(p), nfq_spec(), 22'994, false);
}

TEST(CanonicalKey, MatchesReferenceOnE2IncorrectAddNode) {
  // The checker stops at the lost node; the audit explores on past it.
  Program p("nfq_prime_bug_mc");
  expect_agrees(p.cp, nfq_checks(p), nfq_spec(), 62, true);
}

}  // namespace
}  // namespace synat::mc
