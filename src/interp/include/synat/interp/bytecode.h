// Stack-machine bytecode for SYNL and its compiler.
//
// Each instruction is one interpreter transition (the granularity the model
// checker interleaves at, mirroring SPIN's statement-level steps). The
// compiler assigns dense slots to globals, thread-locals and per-procedure
// locals, and lowers structured control flow to jumps.
//
// Stack conventions (top on the right):
//   StoreField  [value, ref]        -> []
//   StoreElem   [value, ref, idx]   -> []
//   SCField     [value, ref]        -> [bool]
//   CASGlobal   [expected, newv]    -> [bool]
//   CASField    [expected, newv, ref]        -> [bool]
//   CASElem     [expected, newv, ref, idx]   -> [bool]
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "synat/support/diag.h"
#include "synat/synl/ast.h"

namespace synat::interp {

enum class Op : uint8_t {
  Nop,
  PushInt,   ///< imm = value
  PushBool,  ///< a = 0/1
  PushNull,
  Pop,
  LoadLocal, StoreLocal,    ///< a = frame slot
  LoadGlobal, StoreGlobal,  ///< a = global slot
  LoadTL, StoreTL,          ///< a = thread-local slot
  LoadField, StoreField,    ///< a = field index
  LoadElem, StoreElem,
  New,                      ///< a = class id
  Binary,                   ///< a = BinOp
  Unary,                    ///< a = UnOp
  LLGlobal, LLField, LLElem,
  VLGlobal, VLField, VLElem,
  SCGlobal, SCField, SCElem,
  CASGlobal, CASField, CASElem,
  Jump,         ///< a = target pc
  JumpIfFalse,  ///< a = target pc; pops condition
  Acquire,      ///< pops lock object ref
  Release,      ///< pops lock object ref
  Assume,       ///< pops bool; false => path infeasible (thread stuck)
  Assert,       ///< pops bool; false => error
  Return,       ///< pops return value (always pushed; Unit if none)
};

std::string_view to_string(Op op);

struct Insn {
  Op op = Op::Nop;
  int32_t a = 0;
  int64_t imm = 0;
  synl::StmtId stmt;  ///< originating statement (diagnostics)
};

struct CompiledProc {
  synl::ProcId proc;
  std::string name;
  uint32_t num_params = 0;
  uint32_t frame_size = 0;  ///< params + locals
  uint32_t max_stack = 0;   ///< deepest operand stack any path reaches
  std::vector<Insn> code;
  bool declared_atomic = false;  ///< set by the model-checker configuration
};

struct CompiledProgram {
  const synl::Program* prog = nullptr;
  std::vector<CompiledProc> procs;
  std::vector<synl::VarId> global_vars;  ///< slot -> VarId
  std::vector<synl::VarId> tl_vars;
  /// Field slot maps: class id -> number of fields (field index == slot).
  std::vector<uint32_t> class_num_fields;

  const CompiledProc* find(std::string_view name) const {
    for (const CompiledProc& p : procs)
      if (p.name == name) return &p;
    return nullptr;
  }
  int find_index(std::string_view name) const {
    for (size_t i = 0; i < procs.size(); ++i)
      if (procs[i].name == name) return static_cast<int>(i);
    return -1;
  }
};

/// Compiles every procedure. The program must have passed sema. Procedures
/// created by the variant generator are skipped (they contain TRUE(...)
/// assumptions and are analysis artifacts, not executable entry points),
/// unless `include_variants` is set.
CompiledProgram compile_program(const synl::Program& prog, DiagEngine& diags,
                                bool include_variants = false);

std::string disassemble(const CompiledProc& proc);

}  // namespace synat::interp
