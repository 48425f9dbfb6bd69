#include <algorithm>
#include <unordered_map>

#include "synat/interp/bytecode.h"

namespace synat::interp {

using synl::Expr;
using synl::ExprId;
using synl::ExprKind;
using synl::Program;
using synl::Stmt;
using synl::StmtId;
using synl::StmtKind;
using synl::VarId;
using synl::VarKind;

std::string_view to_string(Op op) {
  switch (op) {
    case Op::Nop: return "nop";
    case Op::PushInt: return "push.i";
    case Op::PushBool: return "push.b";
    case Op::PushNull: return "push.null";
    case Op::Pop: return "pop";
    case Op::LoadLocal: return "ld.loc";
    case Op::StoreLocal: return "st.loc";
    case Op::LoadGlobal: return "ld.glob";
    case Op::StoreGlobal: return "st.glob";
    case Op::LoadTL: return "ld.tl";
    case Op::StoreTL: return "st.tl";
    case Op::LoadField: return "ld.fld";
    case Op::StoreField: return "st.fld";
    case Op::LoadElem: return "ld.elem";
    case Op::StoreElem: return "st.elem";
    case Op::New: return "new";
    case Op::Binary: return "binop";
    case Op::Unary: return "unop";
    case Op::LLGlobal: return "ll.glob";
    case Op::LLField: return "ll.fld";
    case Op::LLElem: return "ll.elem";
    case Op::VLGlobal: return "vl.glob";
    case Op::VLField: return "vl.fld";
    case Op::VLElem: return "vl.elem";
    case Op::SCGlobal: return "sc.glob";
    case Op::SCField: return "sc.fld";
    case Op::SCElem: return "sc.elem";
    case Op::CASGlobal: return "cas.glob";
    case Op::CASField: return "cas.fld";
    case Op::CASElem: return "cas.elem";
    case Op::Jump: return "jmp";
    case Op::JumpIfFalse: return "jf";
    case Op::Acquire: return "acquire";
    case Op::Release: return "release";
    case Op::Assume: return "assume";
    case Op::Assert: return "assert";
    case Op::Return: return "ret";
  }
  return "?";
}

std::string disassemble(const CompiledProc& proc) {
  std::string out = "proc " + proc.name + " (frame " +
                    std::to_string(proc.frame_size) + ")\n";
  for (size_t i = 0; i < proc.code.size(); ++i) {
    const Insn& in = proc.code[i];
    out += "  " + std::to_string(i) + ": " + std::string(to_string(in.op));
    if (in.op == Op::PushInt) {
      out += " " + std::to_string(in.imm);
    } else if (in.op != Op::Nop && in.op != Op::Return && in.op != Op::Pop &&
               in.op != Op::PushNull) {
      out += " " + std::to_string(in.a);
    }
    out += "\n";
  }
  return out;
}

namespace {

class ProcCompiler {
 public:
  ProcCompiler(const Program& prog, const CompiledProgram& cp,
               synl::ProcId pid, DiagEngine& diags)
      : prog_(prog), cp_(cp), diags_(diags) {
    out_.proc = pid;
    out_.name = std::string(prog.syms().name(prog.proc(pid).name));
  }

  CompiledProc run() {
    const synl::ProcInfo& p = prog_.proc(out_.proc);
    for (VarId v : p.params) frame_slot_[v] = next_slot_++;
    out_.num_params = static_cast<uint32_t>(p.params.size());
    compile_stmt(p.body);
    // Implicit `return` (Unit) at the end.
    emit({Op::PushNull, 0, 0, p.body});
    emit({Op::Return, 0, 0, p.body});
    out_.frame_size = next_slot_;
    return std::move(out_);
  }

 private:
  struct LoopCtx {
    StmtId stmt;
    int32_t head;
    size_t sync_depth;
    std::vector<size_t> break_patches;
  };

  size_t emit(Insn insn) {
    out_.code.push_back(insn);
    return out_.code.size() - 1;
  }
  int32_t here() const { return static_cast<int32_t>(out_.code.size()); }
  void patch(size_t at, int32_t target) { out_.code[at].a = target; }

  int32_t slot_of(VarId v) {
    auto it = frame_slot_.find(v);
    if (it != frame_slot_.end()) return static_cast<int32_t>(it->second);
    uint32_t s = next_slot_++;
    frame_slot_[v] = s;
    return static_cast<int32_t>(s);
  }

  int32_t global_slot(VarId v) const {
    for (size_t i = 0; i < cp_.global_vars.size(); ++i)
      if (cp_.global_vars[i] == v) return static_cast<int32_t>(i);
    SYNAT_ASSERT(false, "unknown global");
  }
  int32_t tl_slot(VarId v) const {
    for (size_t i = 0; i < cp_.tl_vars.size(); ++i)
      if (cp_.tl_vars[i] == v) return static_cast<int32_t>(i);
    SYNAT_ASSERT(false, "unknown thread-local");
  }

  int32_t field_index(ExprId field_expr) const {
    const Expr& e = prog_.expr(field_expr);
    const Expr& base = prog_.expr(e.a);
    if (base.type.valid() &&
        prog_.type(base.type).kind == synl::TypeKind::Ref) {
      int idx = prog_.cls(prog_.type(base.type).cls).field_index(e.name);
      if (idx >= 0) return idx;
    }
    diags_.error(e.loc, "cannot compile unresolved field access");
    return 0;
  }

  /// Emits code leaving the location's base on the stack (nothing for
  /// variables) and returns which addressing flavor to use.
  enum class Addr { Local, Global, TL, Field, Elem };
  Addr compile_location_base(ExprId loc) {
    const Expr& e = prog_.expr(loc);
    switch (e.kind) {
      case ExprKind::VarRef: {
        switch (prog_.var(e.var).kind) {
          case VarKind::Global: return Addr::Global;
          case VarKind::ThreadLocal: return Addr::TL;
          default: return Addr::Local;
        }
      }
      case ExprKind::Field:
        compile_expr(e.a);
        return Addr::Field;
      case ExprKind::Index:
        compile_expr(e.a);
        compile_expr(e.b);
        return Addr::Elem;
      default:
        diags_.error(e.loc, "expected a location");
        return Addr::Local;
    }
  }

  int32_t location_operand(ExprId loc, Addr addr) {
    const Expr& e = prog_.expr(loc);
    switch (addr) {
      case Addr::Local: return slot_of(e.var);
      case Addr::Global: return global_slot(e.var);
      case Addr::TL: return tl_slot(e.var);
      case Addr::Field: return field_index(loc);
      case Addr::Elem: return 0;
    }
    return 0;
  }

  void compile_load(ExprId loc) {
    Addr addr = compile_location_base(loc);
    int32_t a = location_operand(loc, addr);
    StmtId s = cur_stmt_;
    switch (addr) {
      case Addr::Local: emit({Op::LoadLocal, a, 0, s}); break;
      case Addr::Global: emit({Op::LoadGlobal, a, 0, s}); break;
      case Addr::TL: emit({Op::LoadTL, a, 0, s}); break;
      case Addr::Field: emit({Op::LoadField, a, 0, s}); break;
      case Addr::Elem: emit({Op::LoadElem, a, 0, s}); break;
    }
  }

  /// Value must already be on the stack below the base (see bytecode.h).
  void compile_store_with_value_below(ExprId loc, Addr addr) {
    int32_t a = location_operand(loc, addr);
    StmtId s = cur_stmt_;
    switch (addr) {
      case Addr::Local: emit({Op::StoreLocal, a, 0, s}); break;
      case Addr::Global: emit({Op::StoreGlobal, a, 0, s}); break;
      case Addr::TL: emit({Op::StoreTL, a, 0, s}); break;
      case Addr::Field: emit({Op::StoreField, a, 0, s}); break;
      case Addr::Elem: emit({Op::StoreElem, a, 0, s}); break;
    }
  }

  void compile_nb_primitive(const Expr& e, ExprId self) {
    StmtId s = cur_stmt_;
    auto pick = [&](Addr addr, Op glob, Op fld, Op elem) {
      switch (addr) {
        case Addr::Global: emit({glob, location_operand(e.a, addr), 0, s}); break;
        case Addr::Field: emit({fld, location_operand(e.a, addr), 0, s}); break;
        case Addr::Elem: emit({elem, 0, 0, s}); break;
        default:
          diags_.error(e.loc,
                       "LL/SC/VL/CAS require a shared location (global or "
                       "heap), not a local variable");
          emit({glob, 0, 0, s});
      }
    };
    switch (e.kind) {
      case ExprKind::LL: {
        Addr addr = compile_location_base(e.a);
        pick(addr, Op::LLGlobal, Op::LLField, Op::LLElem);
        break;
      }
      case ExprKind::VL: {
        Addr addr = compile_location_base(e.a);
        pick(addr, Op::VLGlobal, Op::VLField, Op::VLElem);
        break;
      }
      case ExprKind::SC: {
        compile_expr(e.b);  // value first (below the base)
        Addr addr = compile_location_base(e.a);
        pick(addr, Op::SCGlobal, Op::SCField, Op::SCElem);
        break;
      }
      case ExprKind::CAS: {
        compile_expr(e.b);  // expected
        compile_expr(e.c);  // new value
        Addr addr = compile_location_base(e.a);
        pick(addr, Op::CASGlobal, Op::CASField, Op::CASElem);
        break;
      }
      default:
        SYNAT_ASSERT(false, "not a primitive");
    }
    (void)self;
  }

  void compile_expr(ExprId id) {
    const Expr& e = prog_.expr(id);
    StmtId s = cur_stmt_;
    switch (e.kind) {
      case ExprKind::IntLit:
        emit({Op::PushInt, 0, e.int_value, s});
        break;
      case ExprKind::BoolLit:
        emit({Op::PushBool, e.bool_value ? 1 : 0, 0, s});
        break;
      case ExprKind::NullLit:
        emit({Op::PushNull, 0, 0, s});
        break;
      case ExprKind::VarRef:
      case ExprKind::Field:
      case ExprKind::Index:
        compile_load(id);
        break;
      case ExprKind::Unary:
        compile_expr(e.a);
        emit({Op::Unary, static_cast<int32_t>(e.un_op), 0, s});
        break;
      case ExprKind::Binary:
        // Note: && and || evaluate both sides (no short-circuit), matching
        // the analysis's event model.
        compile_expr(e.a);
        compile_expr(e.b);
        emit({Op::Binary, static_cast<int32_t>(e.bin_op), 0, s});
        break;
      case ExprKind::LL:
      case ExprKind::VL:
      case ExprKind::SC:
      case ExprKind::CAS:
        compile_nb_primitive(e, id);
        break;
      case ExprKind::New:
        emit({Op::New, static_cast<int32_t>(e.new_class.idx), 0, s});
        break;
      case ExprKind::Call:
        diags_.error(e.loc, "cannot compile a procedure call; inline first");
        emit({Op::PushNull, 0, 0, s});
        break;
    }
  }

  LoopCtx* find_loop(StmtId target) {
    for (auto it = loops_.rbegin(); it != loops_.rend(); ++it)
      if (it->stmt == target) return &*it;
    return nullptr;
  }

  void emit_releases_down_to(size_t depth, StmtId s) {
    for (size_t i = sync_locks_.size(); i > depth; --i) {
      compile_expr(sync_locks_[i - 1]);
      emit({Op::Release, 0, 0, s});
    }
  }

  void compile_stmt(StmtId id) {
    if (!id.valid()) return;
    const Stmt& st = prog_.stmt(id);
    StmtId prev = cur_stmt_;
    cur_stmt_ = id;
    switch (st.kind) {
      case StmtKind::Assign: {
        compile_expr(st.e2);
        Addr addr = compile_location_base(st.e1);
        compile_store_with_value_below(st.e1, addr);
        break;
      }
      case StmtKind::ExprStmt:
        compile_expr(st.e1);
        emit({Op::Pop, 0, 0, id});
        break;
      case StmtKind::Block:
        for (StmtId c : st.stmts) compile_stmt(c);
        break;
      case StmtKind::If: {
        compile_expr(st.e1);
        size_t jf = emit({Op::JumpIfFalse, 0, 0, id});
        compile_stmt(st.s1);
        if (st.s2.valid()) {
          size_t jend = emit({Op::Jump, 0, 0, id});
          patch(jf, here());
          compile_stmt(st.s2);
          patch(jend, here());
        } else {
          patch(jf, here());
        }
        break;
      }
      case StmtKind::Local: {
        compile_expr(st.e1);
        emit({Op::StoreLocal, slot_of(st.var), 0, id});
        compile_stmt(st.s1);
        break;
      }
      case StmtKind::Loop: {
        loops_.push_back({id, here(), sync_locks_.size(), {}});
        compile_stmt(st.s1);
        emit({Op::Jump, loops_.back().head, 0, id});
        for (size_t at : loops_.back().break_patches) patch(at, here());
        loops_.pop_back();
        break;
      }
      case StmtKind::Return: {
        if (st.e1.valid()) {
          compile_expr(st.e1);
        } else {
          emit({Op::PushNull, 0, 0, id});
        }
        emit_releases_down_to(0, id);
        emit({Op::Return, 0, 0, id});
        break;
      }
      case StmtKind::Break: {
        LoopCtx* ctx = find_loop(st.jump_target);
        if (!ctx) break;
        emit_releases_down_to(ctx->sync_depth, id);
        ctx->break_patches.push_back(emit({Op::Jump, 0, 0, id}));
        break;
      }
      case StmtKind::Continue: {
        LoopCtx* ctx = find_loop(st.jump_target);
        if (!ctx) break;
        emit_releases_down_to(ctx->sync_depth, id);
        emit({Op::Jump, ctx->head, 0, id});
        break;
      }
      case StmtKind::Skip:
        break;
      case StmtKind::Synchronized: {
        compile_expr(st.e1);
        emit({Op::Acquire, 0, 0, id});
        sync_locks_.push_back(st.e1);
        compile_stmt(st.s1);
        sync_locks_.pop_back();
        compile_expr(st.e1);
        emit({Op::Release, 0, 0, id});
        break;
      }
      case StmtKind::Assume:
        compile_expr(st.e1);
        emit({Op::Assume, 0, 0, id});
        break;
      case StmtKind::Assert:
        compile_expr(st.e1);
        emit({Op::Assert, 0, 0, id});
        break;
    }
    cur_stmt_ = prev;
  }

  const Program& prog_;
  const CompiledProgram& cp_;
  DiagEngine& diags_;
  CompiledProc out_;
  std::unordered_map<VarId, uint32_t> frame_slot_;
  uint32_t next_slot_ = 0;
  std::vector<LoopCtx> loops_;
  std::vector<ExprId> sync_locks_;
  StmtId cur_stmt_;
};

/// Net operand-stack effect of one instruction (pops before pushes, so a
/// step never holds more than max(depth before, depth after) values).
int stack_effect(Op op) {
  switch (op) {
    case Op::Nop: case Op::Jump: case Op::LoadField: case Op::Unary:
    case Op::LLField: case Op::VLField: case Op::SCGlobal:
      return 0;
    case Op::PushInt: case Op::PushBool: case Op::PushNull: case Op::LoadLocal:
    case Op::LoadGlobal: case Op::LoadTL: case Op::New: case Op::LLGlobal:
    case Op::VLGlobal:
      return 1;
    case Op::Pop: case Op::StoreLocal: case Op::StoreGlobal: case Op::StoreTL:
    case Op::LoadElem: case Op::Binary: case Op::LLElem: case Op::VLElem:
    case Op::SCField: case Op::CASGlobal: case Op::JumpIfFalse:
    case Op::Acquire: case Op::Release: case Op::Assume: case Op::Assert:
    case Op::Return:
      return -1;
    case Op::StoreField: case Op::SCElem: case Op::CASField:
      return -2;
    case Op::StoreElem: case Op::CASElem:
      return -3;
  }
  return 0;
}

/// Deepest operand stack over every path from pc 0. Statements leave the
/// stack as they found it, so each pc has one depth.
uint32_t max_stack_depth(const std::vector<Insn>& code) {
  std::vector<int> depth(code.size(), -1);
  std::vector<size_t> work;
  auto reach = [&](size_t pc, int d) {
    if (pc < code.size() && depth[pc] < 0) {
      depth[pc] = d;
      work.push_back(pc);
    }
  };
  reach(0, 0);
  int peak = 0;
  while (!work.empty()) {
    size_t pc = work.back();
    work.pop_back();
    const Insn& in = code[pc];
    int out = depth[pc] + stack_effect(in.op);
    peak = std::max({peak, depth[pc], out});
    if (in.op == Op::Return) continue;
    if (in.op == Op::Jump || in.op == Op::JumpIfFalse)
      reach(static_cast<size_t>(in.a), out);
    if (in.op != Op::Jump) reach(pc + 1, out);
  }
  return static_cast<uint32_t>(peak);
}

}  // namespace

CompiledProgram compile_program(const Program& prog, DiagEngine& diags,
                                bool include_variants) {
  CompiledProgram cp;
  cp.prog = &prog;
  for (VarId v : prog.globals()) cp.global_vars.push_back(v);
  for (VarId v : prog.threadlocals()) cp.tl_vars.push_back(v);
  for (size_t i = 0; i < prog.num_classes(); ++i) {
    cp.class_num_fields.push_back(static_cast<uint32_t>(
        prog.cls(synl::ClassId(static_cast<uint32_t>(i))).fields.size()));
  }
  for (size_t i = 0; i < prog.num_procs(); ++i) {
    synl::ProcId pid(static_cast<uint32_t>(i));
    if (!include_variants && prog.proc(pid).variant_of.valid()) continue;
    cp.procs.push_back(ProcCompiler(prog, cp, pid, diags).run());
    cp.procs.back().max_stack = max_stack_depth(cp.procs.back().code);
  }
  return cp;
}

}  // namespace synat::interp
