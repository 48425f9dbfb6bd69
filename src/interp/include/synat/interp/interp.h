// SYNL small-step interpreter over the compiled bytecode.
//
// One `step` executes exactly one instruction of one thread — the
// interleaving granularity used by the model checker. Steps are
// deterministic given (state, tid), so an execution is fully described by
// its schedule, matching the paper's Section 3.2 determinism note.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "synat/interp/bytecode.h"
#include "synat/interp/state.h"

namespace synat::interp {

struct ThreadSpec {
  int proc = -1;  ///< index into CompiledProgram::procs
  std::vector<Value> args;
};

enum class StepResult : uint8_t {
  Ok,       ///< executed one instruction
  Done,     ///< thread already finished (no-op)
  Blocked,  ///< next instruction is a lock acquire held elsewhere
  Stuck,    ///< thread failed an Assume (infeasible path)
  Error,    ///< assertion failure or runtime error (null deref, bounds)
};

class Interp {
 public:
  Interp(const CompiledProgram& cp, int array_size = 3);

  const CompiledProgram& program() const { return cp_; }

  /// Fresh state with one thread per spec, all at pc 0. Globals are
  /// zero/null/false; thread-locals likewise.
  State initial_state(const std::vector<ThreadSpec>& threads) const;

  /// Points thread `tid` at the start of `proc` with `args` and an empty
  /// stack, keeping its thread-locals and links.
  void start_thread(State& s, int tid, int proc,
                    const std::vector<Value>& args) const;

  /// Executes one instruction of thread `tid`.
  StepResult step(State& s, int tid, std::string* error) const;

  /// True if step(s, tid) would execute an instruction right now.
  bool runnable(const State& s, int tid) const;

  /// The instruction thread `tid` would execute next (it must be Runnable).
  const Insn& next_insn(const State& s, int tid) const;

  /// True if the next instruction neither reads nor writes shared state:
  /// safe to commit without considering other threads (POR ample set).
  bool next_insn_invisible(const State& s, int tid) const;

  /// Runs a single thread to completion (for sequential setup and tests).
  StepResult run_thread(State& s, int tid, std::string* error,
                        size_t max_steps = 1u << 20) const;

  /// Allocates an object of class `cls`; array-typed fields get fresh
  /// arrays of `array_size` elements.
  ObjId alloc_object(State& s, synl::ClassId cls) const;
  ObjId alloc_array(State& s, synl::TypeId elem) const;

 private:
  Value default_value(synl::TypeId t) const;
  StepResult exec(State& s, int tid, const Insn& insn, std::string* error) const;

  const CompiledProgram& cp_;
  int array_size_;
  uint32_t stride_ = 0;  ///< State::stride of the states this creates
};

}  // namespace synat::interp
