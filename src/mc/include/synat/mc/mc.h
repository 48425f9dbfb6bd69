// Explicit-state model checker for SYNL programs.
//
// Substitutes for the paper's TVLA (Table 2) and SPIN (Section 6.3)
// substrates: a DFS over canonicalized states with two optional reductions,
//   - a conservative ample-set partial-order reduction that commits
//     invisible (thread-local) instructions without interleaving, and
//   - the paper's contribution: procedure-level atomic-block reduction,
//     where procedures the atomicity analysis proved atomic are executed
//     without interruption once entered.
//
// State canonicalization renames heap objects in deterministic reachability
// order (symmetry on object identity) and replaces absolute LL/SC version
// counters with validity bits, so states differing only in allocation
// history or version magnitudes coincide. Seen-state storage keeps 64-bit
// hashes of the canonical form (hash compaction, as in SPIN; the collision
// probability at our state counts is negligible and the technique is
// documented in EXPERIMENTS.md).
//
// The canonical form exists twice. `canonicalize()` is the reference
// definition: a readable byte serialization, allocated per call. The
// exploration loop uses `canonical_key()`, a compact word encoding of the
// same information written into a buffer the checker reuses; it induces
// exactly the same equivalence on states (tests/mc/test_key.cpp checks
// this on every state of the E2 and E5 runs).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "synat/interp/interp.h"

namespace synat::mc {

using interp::CompiledProgram;
using interp::Interp;
using interp::State;
using interp::Value;

struct ThreadPlan {
  std::string proc;          ///< main procedure the thread runs (once)
  std::vector<Value> args;
  std::string init_proc;     ///< optional per-thread setup (e.g. allocate
                             ///< the thread's working copy), run before
                             ///< exploration starts
  std::vector<Value> init_args;
};

struct RunSpec {
  std::vector<ThreadPlan> threads;
  std::string global_init;  ///< optional setup run once (on thread 0)
};

/// Property callbacks. Returning a message reports a violation.
using StateCheck =
    std::function<std::optional<std::string>(const State&, const Interp&)>;

struct Options {
  int array_size = 3;
  bool por = false;  ///< ample-set reduction over invisible instructions
  /// Names of procedures to treat as atomic blocks (normally the ones the
  /// analysis proved; the checker does not re-verify the claim).
  std::vector<std::string> atomic_procs;
  uint64_t max_states = 100'000'000;
  StateCheck invariant;    ///< checked at every state
  StateCheck final_check;  ///< checked at quiescent states (no runnable thread)
  bool report_deadlock = false;  ///< quiescent non-done threads are an error
};

struct Result {
  uint64_t states = 0;
  uint64_t transitions = 0;
  uint64_t final_states = 0;
  bool error_found = false;
  std::string error;
  bool hit_state_limit = false;  ///< stopped with a further distinct state
  double seconds = 0;
  uint64_t seen_bytes = 0;  ///< size of the seen-state table at the end

  std::string summary() const;
};

class ModelChecker {
 public:
  ModelChecker(const CompiledProgram& cp, Options opts);

  Result run(const RunSpec& spec);

  /// Canonical serialization of a state, the reference definition of state
  /// identity (exposed for tests: isomorphic states must serialize
  /// identically).
  std::string canonicalize(const State& s) const;

  /// The fast canonical key `run()` hashes: equal for two states iff their
  /// `canonicalize()` bytes are equal. The words live in a buffer of this
  /// checker, valid until its next call.
  std::span<const uint64_t> canonical_key(const State& s);

  /// Resolves a global variable's slot by name (-1 if absent); property
  /// callbacks use this to inspect the heap.
  int global_slot(std::string_view name) const;

  const Interp& interp() const { return interp_; }

 private:
  /// The threads to expand at `s`, written to `out`.
  void choices(const State& s, std::vector<int>& out) const;
  bool thread_inside_atomic(const State& s, int tid) const;

  const CompiledProgram& cp_;
  Options opts_;
  Interp interp_;
  std::vector<bool> proc_atomic_;  ///< per compiled proc

  // canonical_key()'s buffers, reused from state to state.
  std::vector<uint32_t> canon_;       ///< raw ObjId -> canonical id, 0 unseen
  std::vector<interp::ObjId> order_;  ///< reachable objects, canonical order
  std::vector<uint64_t> key_;
  std::vector<std::pair<uint64_t, uint64_t>> link_words_;
};

}  // namespace synat::mc
