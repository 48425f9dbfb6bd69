// Work counters: exact counts of the pipeline spans a batch emits. Wall
// time is noisy; how many times a layer runs is not, so these gates catch
// rebuilt work (a re-parse, a CFG rebuilt per procedure) exactly. When a
// change alters the amount of work on purpose, update the constants below
// and say why in the change description.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <functional>
#include <set>

#include "synat/atomicity/infer.h"
#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/obs/trace.h"
#include "synat/synl/parser.h"

namespace synat::driver {
namespace {

using StageCounts = std::array<size_t, obs::kNumStages>;

/// Runs `f` with span tracing on and counts the spans by stage.
StageCounts count_spans(const std::function<void()>& f) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  const uint64_t dropped = tracer.dropped();
  obs::set_flags(obs::kTraceFlag);
  f();
  obs::set_flags(0);
  EXPECT_EQ(tracer.dropped(), dropped) << "a span ring wrapped; counts lost";
  StageCounts n{};
  for (const obs::SpanRecord& s : tracer.drain()) ++n.at(s.stage);
  return n;
}

size_t at(const StageCounts& n, obs::StageId s) {
  return n[static_cast<size_t>(s)];
}

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

/// NFQ' with its three procedures replicated `k` times under renamed
/// procedures (AddNode_0, UpdateTail_0, Deq_0, AddNode_1, ...), all sharing
/// the original declarations and therefore one conflict universe.
ProgramInput nfq_replicas(size_t k) {
  const std::string src(corpus::get("nfq_prime").source);
  const size_t cut = src.find("proc AddNode");
  const std::string decls = src.substr(0, cut);
  const std::string procs = src.substr(cut);
  ProgramInput in;
  in.name = "nfq_replicas_" + std::to_string(k);
  in.source = decls;
  for (size_t i = 0; i < k; ++i) {
    std::string copy = procs;
    const std::string suffix = "_" + std::to_string(i) + "(";
    for (const char* name : {"AddNode(", "UpdateTail(", "Deq("}) {
      const std::string from = name;
      const std::string to = from.substr(0, from.size() - 1) + suffix;
      copy.replace(copy.find(from), from.size(), to);
    }
    in.source += copy;
  }
  return in;
}

/// `k` disjoint copies of NFQ': each copy renames the class, the globals
/// and the procedures (Node_0, Head_0, AddNode_0, ...) but keeps the field
/// names `Value` and `Next`. No access of one copy can alias an access of
/// another, yet every copy shares the field symbols, so an index keyed on
/// field names alone would still pair every copy with every other.
std::string nfq_disjoint_copies(size_t k) {
  const std::string src(corpus::get("nfq_prime").source);
  const std::set<std::string> renamed = {"Node",    "Head",       "Tail",
                                         "AddNode", "UpdateTail", "Deq"};
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  std::string out;
  for (size_t i = 0; i < k; ++i) {
    const std::string suffix = "_" + std::to_string(i);
    for (size_t p = 0; p < src.size();) {
      if (!ident(src[p])) {
        out += src[p++];
        continue;
      }
      size_t end = p;
      while (end < src.size() && ident(src[end])) ++end;
      const std::string word = src.substr(p, end - p);
      out += renamed.count(word) ? word + suffix : word;
      p = end;
    }
  }
  return out;
}

atomicity::InferWork infer_work(const std::string& source) {
  DiagEngine diags;
  synl::Program prog = synl::parse_and_check(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  atomicity::AtomicityResult r = atomicity::infer_atomicity(prog, diags);
  EXPECT_TRUE(r.all_atomic());
  return r.work();
}

// The whole corpus at --jobs 1 without a cache: one parse per program, and
// every CFG and variant built exactly once per program.
TEST(WorkCounters, CorpusBatchRunsEachLayerOncePerProgram) {
  std::vector<ProgramInput> inputs = corpus_inputs();
  BatchReport report;
  StageCounts n = count_spans([&] {
    BatchDriver drv(DriverOptions{});
    report = drv.run(inputs);
  });
  EXPECT_EQ(at(n, obs::StageId::Parse), inputs.size());
  EXPECT_EQ(at(n, obs::StageId::Parse), 17u);
  EXPECT_EQ(at(n, obs::StageId::CfgLiveness), 106u);
  EXPECT_EQ(at(n, obs::StageId::Variants), 45u);
  EXPECT_EQ(at(n, obs::StageId::Variants), report.metrics.procedures);
  EXPECT_EQ(at(n, obs::StageId::Infer), inputs.size());
  // Mover classification runs once per reported variant.
  EXPECT_EQ(at(n, obs::StageId::Movers), report.metrics.variants);
}

// Per-program work is linear in the procedures: twice the replicas, exactly
// twice the CFG builds, variant expansions and classifications, and still
// one parse.
TEST(WorkCounters, ReplicatedNfqScalesLinearly) {
  auto run = [](size_t k) {
    return count_spans([k] {
      BatchDriver drv(DriverOptions{});
      BatchReport r = drv.run({nfq_replicas(k)});
      ASSERT_EQ(r.programs.at(0).procs.size(), 3 * k);
    });
  };
  const size_t k = 4;
  StageCounts one = run(k), two = run(2 * k);
  EXPECT_EQ(at(one, obs::StageId::Parse), 1u);
  EXPECT_EQ(at(two, obs::StageId::Parse), 1u);
  for (obs::StageId s : {obs::StageId::CfgLiveness, obs::StageId::Variants,
                         obs::StageId::Movers}) {
    EXPECT_GT(at(one, s), 0u) << obs::stage_name(s);
    EXPECT_EQ(at(two, s), 2 * at(one, s)) << obs::stage_name(s);
  }
}

// Mover classification visits only the conflict-universe entries that may
// alias the classified access: twice the disjoint copies, exactly twice the
// step-4 candidates. A scan of the whole universe per event visits 227,
// 3,560 and 14,192; an index keyed on field names alone visits 540 at four
// copies.
TEST(WorkCounters, DisjointCopiesScaleStep4CandidatesLinearly) {
  const atomicity::InferWork one = infer_work(nfq_disjoint_copies(1));
  const atomicity::InferWork four = infer_work(nfq_disjoint_copies(4));
  const atomicity::InferWork eight = infer_work(nfq_disjoint_copies(8));
  EXPECT_EQ(one.step4_candidates, 72u);
  EXPECT_EQ(four.step4_candidates, 4 * one.step4_candidates);
  EXPECT_EQ(eight.step4_candidates, 2 * four.step4_candidates);
}

// The Theorem 5.5 premise is evaluated once per distinct shared-variable
// path, however many event pairs consult it. Each NFQ' copy has four: the
// block variables t.Next of AddNode'1 and UpdateTail'1 and h.Next of Deq'1
// and Deq'2 (each variant owns its locals). Without the memo each copy
// would evaluate 16 premises.
TEST(WorkCounters, PremiseEvaluatedOncePerSharedVariable) {
  EXPECT_EQ(infer_work(nfq_disjoint_copies(1)).premise_evals, 4u);
  EXPECT_EQ(infer_work(nfq_disjoint_copies(4)).premise_evals, 16u);
  EXPECT_EQ(infer_work(nfq_disjoint_copies(8)).premise_evals, 32u);
}

}  // namespace
}  // namespace synat::driver
