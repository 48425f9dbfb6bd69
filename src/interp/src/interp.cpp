#include "synat/interp/interp.h"

#include <algorithm>

namespace synat::interp {

using synl::BinOp;
using synl::TypeKind;
using synl::UnOp;

namespace {

std::string at(const CompiledProgram& cp, const Thread& t) {
  const CompiledProc& p = cp.procs[static_cast<size_t>(t.proc)];
  std::string out = p.name + "+" + std::to_string(t.pc);
  if (t.pc < p.code.size() && t.pc > 0) {
    synl::StmtId s = p.code[t.pc - 1].stmt;
    if (s.valid() && cp.prog->stmt(s).loc.valid())
      out += " (line " + std::to_string(cp.prog->stmt(s).loc.line) + ")";
  }
  return out;
}

Value eval_binary(BinOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinOp::Add: return Value::of_int(a.i + b.i);
    case BinOp::Sub: return Value::of_int(a.i - b.i);
    case BinOp::Mul: return Value::of_int(a.i * b.i);
    case BinOp::Div: return Value::of_int(b.i == 0 ? 0 : a.i / b.i);
    case BinOp::Mod: return Value::of_int(b.i == 0 ? 0 : a.i % b.i);
    case BinOp::Eq:
      if (a.kind == Value::Ref || b.kind == Value::Ref)
        return Value::of_bool(a.ref == b.ref);
      return Value::of_bool(a.i == b.i);
    case BinOp::Ne:
      if (a.kind == Value::Ref || b.kind == Value::Ref)
        return Value::of_bool(a.ref != b.ref);
      return Value::of_bool(a.i != b.i);
    case BinOp::Lt: return Value::of_bool(a.i < b.i);
    case BinOp::Le: return Value::of_bool(a.i <= b.i);
    case BinOp::Gt: return Value::of_bool(a.i > b.i);
    case BinOp::Ge: return Value::of_bool(a.i >= b.i);
    case BinOp::And: return Value::of_bool(a.truthy() && b.truthy());
    case BinOp::Or: return Value::of_bool(a.truthy() || b.truthy());
  }
  return Value::unit();
}

}  // namespace

// ---------------------------------------------------------------------------
// LL reservations

std::span<const Link> State::links_of(uint32_t tid) const {
  auto lo = std::partition_point(links.begin(), links.end(),
                                 [&](const Link& l) { return l.tid < tid; });
  auto hi = std::partition_point(lo, links.end(),
                                 [&](const Link& l) { return l.tid == tid; });
  return {lo, hi};
}

const Link* State::find_link(uint32_t tid, const LocKey& key) const {
  for (const Link& l : links_of(tid))
    if (l.key == key) return &l;
  return nullptr;
}

void State::set_link(uint32_t tid, const LocKey& key, uint64_t version) {
  auto it = std::lower_bound(links.begin(), links.end(), std::pair(tid, key),
                             [](const Link& l, const std::pair<uint32_t, LocKey>& k) {
                               return std::pair(l.tid, l.key) < k;
                             });
  if (it != links.end() && it->tid == tid && it->key == key) {
    it->version = version;
  } else {
    links.insert(it, {tid, key, version});
  }
}

void State::clear_links(uint32_t tid) {
  std::span<const Link> mine = links_of(tid);
  auto first = links.begin() + (mine.data() - links.data());
  links.erase(first, first + static_cast<std::ptrdiff_t>(mine.size()));
}

// ---------------------------------------------------------------------------
// Interpreter

Interp::Interp(const CompiledProgram& cp, int array_size)
    : cp_(cp), array_size_(array_size) {
  // One spare stack slot: exec() checks the depth before an instruction,
  // and one instruction pushes at most one value net.
  uint32_t widest = 0;
  for (const CompiledProc& p : cp_.procs)
    widest = std::max(widest, p.frame_size + p.max_stack + 1);
  stride_ = static_cast<uint32_t>(cp_.tl_vars.size()) + widest;
}

Value Interp::default_value(synl::TypeId t) const {
  if (!t.valid()) return Value::of_int(0);
  switch (cp_.prog->type(t).kind) {
    case TypeKind::Bool: return Value::of_bool(false);
    case TypeKind::Ref:
    case TypeKind::Null:
    case TypeKind::Array: return Value::null();
    default: return Value::of_int(0);
  }
}

ObjId Interp::alloc_array(State& s, synl::TypeId elem) const {
  Heap& h = s.heap;
  ObjHeader arr;  // an invalid class marks an array
  arr.first = static_cast<uint32_t>(h.cells.size());
  arr.n = static_cast<uint32_t>(array_size_);
  h.cells.insert(h.cells.end(), arr.n, default_value(elem));
  h.versions.insert(h.versions.end(), arr.n, 0);
  h.objs.push_back(arr);
  return static_cast<ObjId>(h.objs.size());
}

ObjId Interp::alloc_object(State& s, synl::ClassId cls) const {
  const synl::ClassInfo& info = cp_.prog->cls(cls);
  auto is_array = [&](const synl::FieldInfo& f) {
    return f.type.valid() && cp_.prog->type(f.type).kind == TypeKind::Array;
  };
  // Auto-allocate fixed-size arrays (SYNL has no array literal; the model
  // checker bounds them, see DESIGN.md). They take the ids before the
  // object's, in field order.
  ObjId next_array = static_cast<ObjId>(s.heap.size()) + 1;
  for (const synl::FieldInfo& f : info.fields)
    if (is_array(f)) alloc_array(s, cp_.prog->type(f.type).elem);
  Heap& h = s.heap;
  ObjHeader obj;
  obj.cls = cls;
  obj.first = static_cast<uint32_t>(h.cells.size());
  obj.n = static_cast<uint32_t>(info.fields.size());
  for (const synl::FieldInfo& f : info.fields)
    h.cells.push_back(is_array(f) ? Value::of_ref(next_array++)
                                  : default_value(f.type));
  h.versions.insert(h.versions.end(), obj.n, 0);
  h.objs.push_back(obj);
  return static_cast<ObjId>(h.objs.size());
}

State Interp::initial_state(const std::vector<ThreadSpec>& specs) const {
  State s;
  s.globals.reserve(cp_.global_vars.size());
  for (synl::VarId v : cp_.global_vars)
    s.globals.push_back(default_value(cp_.prog->var(v).type));
  s.global_versions.assign(cp_.global_vars.size(), 0);

  s.num_tls = static_cast<uint32_t>(cp_.tl_vars.size());
  s.stride = stride_;
  s.threads.resize(specs.size());
  s.tvals.assign(specs.size() * stride_, Value::unit());
  for (size_t tid = 0; tid < specs.size(); ++tid) {
    std::span<Value> tls = s.tls(tid);
    for (size_t i = 0; i < tls.size(); ++i)
      tls[i] = default_value(cp_.prog->var(cp_.tl_vars[i]).type);
    start_thread(s, static_cast<int>(tid), specs[tid].proc, specs[tid].args);
  }
  return s;
}

void Interp::start_thread(State& s, int tid, int proc,
                          const std::vector<Value>& args) const {
  SYNAT_ASSERT(proc >= 0 && static_cast<size_t>(proc) < cp_.procs.size(),
               "bad thread proc index");
  const CompiledProc& p = cp_.procs[static_cast<size_t>(proc)];
  SYNAT_ASSERT(args.size() == p.num_params,
               "wrong argument count for " + p.name);
  Thread& t = s.threads[static_cast<size_t>(tid)];
  t.proc = proc;
  t.pc = 0;
  t.frame_size = p.frame_size;
  t.sp = 0;
  t.status = ThreadStatus::Runnable;
  t.ret = Value::unit();
  std::span<Value> frame = s.frame(static_cast<size_t>(tid));
  std::fill(frame.begin(), frame.end(), Value::unit());
  std::copy(args.begin(), args.end(), frame.begin());
}

const Insn& Interp::next_insn(const State& s, int tid) const {
  const Thread& t = s.threads[static_cast<size_t>(tid)];
  return cp_.procs[static_cast<size_t>(t.proc)].code[t.pc];
}

bool Interp::runnable(const State& s, int tid) const {
  const Thread& t = s.threads[static_cast<size_t>(tid)];
  if (t.status != ThreadStatus::Runnable) return false;
  const Insn& insn = next_insn(s, tid);
  if (insn.op == Op::Acquire) {
    // The lock object ref is on top of the stack.
    if (t.sp == 0) return true;  // error path; let step report it
    ObjId o = s.stack(static_cast<size_t>(tid))[t.sp - 1].ref;
    if (!s.valid_ref(o)) return true;
    const ObjHeader& obj = s.obj(o).hdr;
    return obj.lock_owner == -1 || obj.lock_owner == tid;
  }
  return true;
}

bool Interp::next_insn_invisible(const State& s, int tid) const {
  const Thread& t = s.threads[static_cast<size_t>(tid)];
  if (t.status != ThreadStatus::Runnable) return false;
  switch (next_insn(s, tid).op) {
    case Op::Nop:
    case Op::PushInt:
    case Op::PushBool:
    case Op::PushNull:
    case Op::Pop:
    case Op::LoadLocal:
    case Op::StoreLocal:
    case Op::LoadTL:
    case Op::StoreTL:
    case Op::Binary:
    case Op::Unary:
    case Op::Jump:
    case Op::JumpIfFalse:
    case Op::Assume:
    case Op::Assert:
    case Op::Return:
    case Op::New:  // fresh object: invisible until published
      return true;
    default:
      return false;
  }
}

StepResult Interp::step(State& s, int tid, std::string* error) const {
  Thread& t = s.threads[static_cast<size_t>(tid)];
  switch (t.status) {
    case ThreadStatus::Done: return StepResult::Done;
    case ThreadStatus::Stuck: return StepResult::Stuck;
    case ThreadStatus::Runnable: break;
  }
  const Insn& insn = next_insn(s, tid);
  return exec(s, tid, insn, error);
}

StepResult Interp::exec(State& s, int tid, const Insn& insn,
                        std::string* error) const {
  const size_t ut = static_cast<size_t>(tid);
  Thread& t = s.threads[ut];
  auto fail = [&](const std::string& what) {
    if (error) *error = what + " at " + at(cp_, t);
    return StepResult::Error;
  };
  Value* const tls = s.region(ut);
  Value* const frame = tls + s.num_tls;
  Value* const stack = frame + t.frame_size;
  auto push = [&](const Value& v) { stack[t.sp++] = v; };
  auto pop = [&]() { return stack[--t.sp]; };
  if (t.sp >= s.stack_capacity(t.frame_size))
    return fail("operand stack overflow");

  // Helpers shared by the location-addressed instruction families. They
  // resolve the cell identity and current value/version.
  struct Cell {
    Value* value = nullptr;
    uint64_t* version = nullptr;
    LocKey key;
    bool ok = false;
  };
  auto global_cell = [&](int32_t slot) {
    Cell c;
    c.value = &s.globals[static_cast<size_t>(slot)];
    c.version = &s.global_versions[static_cast<size_t>(slot)];
    c.key = {LocKey::Global, static_cast<uint32_t>(slot), 0};
    c.ok = true;
    return c;
  };
  auto field_cell = [&](ObjId o, int32_t field) {
    Cell c;
    if (!s.valid_ref(o)) return c;
    ObjView obj = s.obj(o);
    if (field < 0 || static_cast<size_t>(field) >= obj.fields.size()) return c;
    c.value = &obj.fields[static_cast<size_t>(field)];
    c.version = &obj.versions[static_cast<size_t>(field)];
    c.key = {LocKey::Field, o, static_cast<uint32_t>(field)};
    c.ok = true;
    return c;
  };
  auto elem_cell = [&](ObjId o, int64_t idx) {
    Cell c;
    if (!s.valid_ref(o)) return c;
    ObjView obj = s.obj(o);
    if (idx < 0 || static_cast<size_t>(idx) >= obj.fields.size()) return c;
    c.value = &obj.fields[static_cast<size_t>(idx)];
    c.version = &obj.versions[static_cast<size_t>(idx)];
    c.key = {LocKey::Elem, o, static_cast<uint32_t>(idx)};
    c.ok = true;
    return c;
  };

  const uint32_t ltid = static_cast<uint32_t>(tid);
  auto do_ll = [&](const Cell& c) {
    s.set_link(ltid, c.key, *c.version);
    push(*c.value);
  };
  auto linked = [&](const Cell& c) {
    const Link* l = s.find_link(ltid, c.key);
    return l != nullptr && l->version == *c.version;
  };
  auto do_vl = [&](const Cell& c) { push(Value::of_bool(linked(c))); };
  auto do_sc = [&](const Cell& c, const Value& v) {
    if (linked(c)) {
      *c.value = v;
      ++*c.version;
      push(Value::of_bool(true));
    } else {
      push(Value::of_bool(false));
    }
  };
  auto do_cas = [&](const Cell& c, const Value& expected, const Value& newv) {
    bool equal = (c.value->kind == Value::Ref || expected.kind == Value::Ref)
                     ? c.value->ref == expected.ref
                     : c.value->i == expected.i;
    if (equal) {
      *c.value = newv;
      ++*c.version;  // the "modification counter": CAS bumps it
      push(Value::of_bool(true));
    } else {
      push(Value::of_bool(false));
    }
  };

  switch (insn.op) {
    case Op::Nop:
      break;
    case Op::PushInt:
      push(Value::of_int(insn.imm));
      break;
    case Op::PushBool:
      push(Value::of_bool(insn.a != 0));
      break;
    case Op::PushNull:
      push(Value::null());
      break;
    case Op::Pop:
      pop();
      break;
    case Op::LoadLocal:
      push(frame[insn.a]);
      break;
    case Op::StoreLocal:
      frame[insn.a] = pop();
      break;
    case Op::LoadGlobal:
      push(s.globals[static_cast<size_t>(insn.a)]);
      break;
    case Op::StoreGlobal:
      s.globals[static_cast<size_t>(insn.a)] = pop();
      break;
    case Op::LoadTL:
      push(tls[insn.a]);
      break;
    case Op::StoreTL:
      tls[insn.a] = pop();
      break;
    case Op::LoadField: {
      ObjId o = pop().ref;
      Cell c = field_cell(o, insn.a);
      if (!c.ok) return fail("null or invalid field access");
      push(*c.value);
      break;
    }
    case Op::StoreField: {
      ObjId o = pop().ref;
      Value v = pop();
      Cell c = field_cell(o, insn.a);
      if (!c.ok) return fail("null or invalid field store");
      *c.value = v;
      break;
    }
    case Op::LoadElem: {
      int64_t idx = pop().i;
      ObjId o = pop().ref;
      Cell c = elem_cell(o, idx);
      if (!c.ok) return fail("array access out of bounds or null");
      push(*c.value);
      break;
    }
    case Op::StoreElem: {
      int64_t idx = pop().i;
      ObjId o = pop().ref;
      Value v = pop();
      Cell c = elem_cell(o, idx);
      if (!c.ok) return fail("array store out of bounds or null");
      *c.value = v;
      break;
    }
    case Op::New:
      push(Value::of_ref(
          alloc_object(s, synl::ClassId(static_cast<uint32_t>(insn.a)))));
      break;
    case Op::Binary: {
      Value b = pop();
      Value a = pop();
      push(eval_binary(static_cast<BinOp>(insn.a), a, b));
      break;
    }
    case Op::Unary: {
      Value a = pop();
      if (static_cast<UnOp>(insn.a) == UnOp::Not) {
        push(Value::of_bool(!a.truthy()));
      } else {
        push(Value::of_int(-a.i));
      }
      break;
    }
    case Op::LLGlobal: do_ll(global_cell(insn.a)); break;
    case Op::VLGlobal: do_vl(global_cell(insn.a)); break;
    case Op::SCGlobal: {
      Value v = pop();
      do_sc(global_cell(insn.a), v);
      break;
    }
    case Op::CASGlobal: {
      Value newv = pop();
      Value expected = pop();
      do_cas(global_cell(insn.a), expected, newv);
      break;
    }
    case Op::LLField: {
      ObjId o = pop().ref;
      Cell c = field_cell(o, insn.a);
      if (!c.ok) return fail("LL on null/invalid field");
      do_ll(c);
      break;
    }
    case Op::VLField: {
      ObjId o = pop().ref;
      Cell c = field_cell(o, insn.a);
      if (!c.ok) return fail("VL on null/invalid field");
      do_vl(c);
      break;
    }
    case Op::SCField: {
      ObjId o = pop().ref;
      Value v = pop();
      Cell c = field_cell(o, insn.a);
      if (!c.ok) return fail("SC on null/invalid field");
      do_sc(c, v);
      break;
    }
    case Op::CASField: {
      ObjId o = pop().ref;
      Value newv = pop();
      Value expected = pop();
      Cell c = field_cell(o, insn.a);
      if (!c.ok) return fail("CAS on null/invalid field");
      do_cas(c, expected, newv);
      break;
    }
    case Op::LLElem: {
      int64_t idx = pop().i;
      ObjId o = pop().ref;
      Cell c = elem_cell(o, idx);
      if (!c.ok) return fail("LL on invalid element");
      do_ll(c);
      break;
    }
    case Op::VLElem: {
      int64_t idx = pop().i;
      ObjId o = pop().ref;
      Cell c = elem_cell(o, idx);
      if (!c.ok) return fail("VL on invalid element");
      do_vl(c);
      break;
    }
    case Op::SCElem: {
      int64_t idx = pop().i;
      ObjId o = pop().ref;
      Value v = pop();
      Cell c = elem_cell(o, idx);
      if (!c.ok) return fail("SC on invalid element");
      do_sc(c, v);
      break;
    }
    case Op::CASElem: {
      int64_t idx = pop().i;
      ObjId o = pop().ref;
      Value newv = pop();
      Value expected = pop();
      Cell c = elem_cell(o, idx);
      if (!c.ok) return fail("CAS on invalid element");
      do_cas(c, expected, newv);
      break;
    }
    case Op::Jump:
      t.pc = static_cast<uint32_t>(insn.a);
      return StepResult::Ok;
    case Op::JumpIfFalse: {
      Value c = pop();
      if (!c.truthy()) {
        t.pc = static_cast<uint32_t>(insn.a);
        return StepResult::Ok;
      }
      break;
    }
    case Op::Acquire: {
      // Do not consume anything unless the lock is available.
      if (t.sp == 0) return fail("acquire without lock operand");
      ObjId o = stack[t.sp - 1].ref;
      if (!s.valid_ref(o)) return fail("acquire on null");
      ObjHeader& obj = s.obj(o).hdr;
      if (obj.lock_owner != -1 && obj.lock_owner != tid)
        return StepResult::Blocked;
      pop();
      obj.lock_owner = tid;
      ++obj.lock_depth;
      break;
    }
    case Op::Release: {
      ObjId o = pop().ref;
      if (!s.valid_ref(o)) return fail("release on null");
      ObjHeader& obj = s.obj(o).hdr;
      if (obj.lock_owner != tid) return fail("release of unowned lock");
      if (--obj.lock_depth == 0) obj.lock_owner = -1;
      break;
    }
    case Op::Assume: {
      Value c = pop();
      if (!c.truthy()) {
        t.status = ThreadStatus::Stuck;
        return StepResult::Stuck;
      }
      break;
    }
    case Op::Assert: {
      Value c = pop();
      if (!c.truthy()) return fail("assertion failed");
      break;
    }
    case Op::Return: {
      t.ret = pop();
      t.status = ThreadStatus::Done;
      // A finished thread never runs again: drop its frame, stack and links
      // so they neither root garbage nor differentiate states.
      t.frame_size = 0;
      t.sp = 0;
      s.clear_links(ltid);
      ++t.pc;
      return StepResult::Ok;
    }
  }
  ++t.pc;
  return StepResult::Ok;
}

StepResult Interp::run_thread(State& s, int tid, std::string* error,
                              size_t max_steps) const {
  for (size_t i = 0; i < max_steps; ++i) {
    StepResult r = step(s, tid, error);
    switch (r) {
      case StepResult::Ok:
        if (s.threads[static_cast<size_t>(tid)].status == ThreadStatus::Done)
          return StepResult::Done;
        break;
      case StepResult::Done:
      case StepResult::Stuck:
      case StepResult::Blocked:
      case StepResult::Error:
        return r;
    }
  }
  if (error) *error = "thread did not terminate within the step budget";
  return StepResult::Error;
}

}  // namespace synat::interp
