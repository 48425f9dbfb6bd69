#include "synat/mc/mc.h"

#include <algorithm>
#include <chrono>

#include "synat/support/hash.h"

namespace synat::mc {

using interp::LocKey;
using interp::ObjId;
using interp::StepResult;
using interp::Thread;
using interp::ThreadStatus;

std::string Result::summary() const {
  std::string out = "states=" + std::to_string(states) +
                    " transitions=" + std::to_string(transitions) +
                    " finals=" + std::to_string(final_states) +
                    " time=" + std::to_string(seconds) + "s";
  if (error_found) out += " ERROR: " + error;
  if (hit_state_limit) out += " (state limit hit)";
  return out;
}

ModelChecker::ModelChecker(const CompiledProgram& cp, Options opts)
    : cp_(cp), opts_(std::move(opts)), interp_(cp, opts_.array_size) {
  proc_atomic_.assign(cp_.procs.size(), false);
  for (const std::string& name : opts_.atomic_procs) {
    int idx = cp_.find_index(name);
    SYNAT_ASSERT(idx >= 0, "unknown atomic proc: " + name);
    proc_atomic_[static_cast<size_t>(idx)] = true;
  }
}

int ModelChecker::global_slot(std::string_view name) const {
  synat::Symbol s = cp_.prog->syms().lookup(name);
  for (size_t i = 0; i < cp_.global_vars.size(); ++i)
    if (cp_.prog->var(cp_.global_vars[i]).name == s)
      return static_cast<int>(i);
  return -1;
}

// ---------------------------------------------------------------------------
// Canonicalization

namespace {

/// Whether the reservation still validates: absolute version numbers never
/// enter the state identity, only this bit.
bool link_valid(const State& s, const interp::Link& l) {
  uint64_t current = l.key.kind == LocKey::Global
                         ? s.global_versions[l.key.a]
                         : s.obj(l.key.a).versions[l.key.b];
  return l.version == current;
}

/// The reference serialization: every field of the identity as a
/// fixed-width 8-byte word, allocated afresh per call.
class Canonicalizer {
 public:
  explicit Canonicalizer(const State& s) : s_(s) {}

  std::string run() {
    // Deterministic root order: globals, then per thread frame, stack, link
    // targets, thread-locals (live threads only) and return value. A link
    // keeps its object in the identity: an LL'd cell can still be SC'd.
    for (const Value& v : s_.globals) touch(v);
    for (size_t tid = 0; tid < s_.threads.size(); ++tid) {
      const Thread& t = s_.threads[tid];
      if (t.status == ThreadStatus::Runnable) {
        for (const Value& v : s_.frame(tid)) touch(v);
        for (const Value& v : s_.stack(tid)) touch(v);
        for (const interp::Link& l : s_.links_of(static_cast<uint32_t>(tid))) {
          if (l.key.kind != LocKey::Global) touch(Value::of_ref(l.key.a));
        }
        // Thread-locals of finished threads can never be read again (each
        // thread runs its procedure once), so only live threads' count.
        for (const Value& v : s_.tls(tid)) touch(v);
      }
      touch(t.ret);
    }
    // BFS closure over heap references.
    for (size_t i = 0; i < order_.size(); ++i) {
      for (const Value& v : s_.obj(order_[i]).fields) touch(v);
    }

    // Serialize.
    put(static_cast<uint64_t>(s_.globals.size()));
    for (const Value& v : s_.globals) put_value(v);
    put(static_cast<uint64_t>(order_.size()));
    for (ObjId o : order_) {
      interp::ConstObjView obj = s_.obj(o);
      put(obj.hdr.cls.valid() ? obj.hdr.cls.idx + 1 : 0u);
      put(static_cast<uint64_t>(static_cast<int64_t>(obj.hdr.lock_owner)));
      put(obj.hdr.lock_depth);
      put(static_cast<uint64_t>(obj.fields.size()));
      for (const Value& v : obj.fields) put_value(v);
    }
    put(static_cast<uint64_t>(s_.threads.size()));
    for (size_t tid = 0; tid < s_.threads.size(); ++tid) {
      const Thread& t = s_.threads[tid];
      // A thread that can never run again is fully described by its status
      // and return value; pc, procedure and private data are normalized
      // away so equivalent futures coincide.
      bool live = t.status == ThreadStatus::Runnable;
      put(static_cast<uint64_t>(t.status));
      put_value(t.ret);
      if (!live) continue;
      put(static_cast<uint64_t>(t.proc));
      put(t.pc);
      put(static_cast<uint64_t>(s_.frame(tid).size()));
      for (const Value& v : s_.frame(tid)) put_value(v);
      put(static_cast<uint64_t>(s_.stack(tid).size()));
      for (const Value& v : s_.stack(tid)) put_value(v);
      put(static_cast<uint64_t>(s_.tls(tid).size()));
      for (const Value& v : s_.tls(tid)) put_value(v);
      put_links(static_cast<uint32_t>(tid));
    }
    return std::move(out_);
  }

 private:
  void touch(const Value& v) {
    if (v.kind != Value::Ref || v.ref == interp::kNull) return;
    if (canon_.size() <= v.ref) canon_.resize(v.ref + 1, 0);
    if (canon_[v.ref] != 0) return;
    canon_[v.ref] = static_cast<uint32_t>(order_.size()) + 1;
    order_.push_back(v.ref);
  }

  uint32_t canon_ref(ObjId o) const {
    return o == interp::kNull ? 0 : canon_[o];
  }

  void put(uint64_t v) {
    // Varint-free fixed encoding; compactness is irrelevant (hashed anyway).
    out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  void put_value(const Value& v) {
    put(v.kind);
    if (v.kind == Value::Ref) {
      put(canon_ref(v.ref));
    } else {
      put(static_cast<uint64_t>(v.i));
    }
  }

  /// Links serialize as (canonical key, still-valid bit), sorted by the
  /// canonical key. Every link target of a live thread is a root, so it
  /// has a canonical id.
  void put_links(uint32_t tid) {
    struct CanonLink {
      uint8_t kind;
      uint32_t a, b;
      uint8_t valid;
      auto key() const { return std::tuple(kind, a, b); }
    };
    std::vector<CanonLink> links;
    for (const interp::Link& l : s_.links_of(tid)) {
      CanonLink cl;
      cl.kind = l.key.kind;
      cl.a = l.key.kind == LocKey::Global ? l.key.a : canon_ref(l.key.a);
      cl.b = l.key.b;
      cl.valid = link_valid(s_, l) ? 1 : 0;
      links.push_back(cl);
    }
    std::sort(links.begin(), links.end(),
              [](const CanonLink& x, const CanonLink& y) {
                if (x.key() != y.key()) return x.key() < y.key();
                return x.valid < y.valid;
              });
    put(static_cast<uint64_t>(links.size()));
    for (const CanonLink& cl : links) {
      put(cl.kind);
      put(cl.a);
      put(cl.b);
      put(cl.valid);
    }
  }

  const State& s_;
  std::vector<uint32_t> canon_{0};  ///< raw ObjId -> canonical id (1-based)
  std::vector<ObjId> order_;
  std::string out_;
};

/// 64x64 -> 128-bit multiply, folded.
inline uint64_t mum(uint64_t a, uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(r) ^ static_cast<uint64_t>(r >> 64);
}

/// The 64-bit hash of a canonical key kept in the seen set.
uint64_t hash_key(std::span<const uint64_t> key) {
  // wyhash-style: one folded 128-bit multiply per pair of words, on two
  // independent lanes so that consecutive multiplies overlap.
  constexpr uint64_t k0 = 0xa0761d6478bd642full, k1 = 0xe7037ed1a0b428dbull,
                     k2 = 0x8ebc6af09c88c6e3ull, k3 = 0x589965cc75374cc3ull;
  const size_t n = key.size();
  uint64_t h0 = k2, h1 = k3;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    h0 = mum(key[i] ^ k0, key[i + 1] ^ h0);
    h1 = mum(key[i + 2] ^ k1, key[i + 3] ^ h1);
  }
  for (; i + 2 <= n; i += 2) h0 = mum(key[i] ^ k0, key[i + 1] ^ h0);
  if (i < n) h1 = mum(key[i] ^ k1, h1 ^ k0);
  return mum(mum(h0 ^ k2, h1 ^ k3), static_cast<uint64_t>(n) ^ k1);
}

}  // namespace

std::string ModelChecker::canonicalize(const State& s) const {
  return Canonicalizer(s).run();
}

// The fast key carries the reference serialization's information in one
// pass, numbering objects as they are first met in the reference's root
// and BFS order. It is decodable word by word from the front, so it is
// equal exactly when the reference bytes are:
//   - a value is one word, (payload << 3) | kind, where the payload is the
//     canonical id of a reference and the integer otherwise; a payload
//     outside 61 signed bits is escaped as the word 4 | kind followed by
//     the payload;
//   - globals, then each thread, then the reachable objects in canonical
//     order (their count is the key's remaining length);
//   - a live thread is (status | proc << 8), (pc | sp << 32),
//     (frame size | link count << 32), frame, stack, thread-locals, return
//     value and links; any other thread is its status and return value;
//   - the global count, thread count and thread-local count are fixed by
//     the program and left out.
std::span<const uint64_t> ModelChecker::canonical_key(const State& s) {
  const size_t num_objs = s.heap.size();
  // Every value takes at most two words; headers are bounded per object,
  // thread and link.
  const size_t bound =
      2 * (s.globals.size() + s.heap.cells.size() + s.tvals.size() +
           num_objs + s.links.size()) +
      5 * s.threads.size();
  if (canon_.size() <= num_objs) canon_.resize(num_objs + 1, 0);
  if (order_.size() < num_objs) order_.resize(num_objs);
  if (key_.size() < bound) key_.resize(bound);
  uint32_t* const canon = canon_.data();  // canon[kNull] stays 0
  ObjId* const order = order_.data();
  uint32_t reached = 0;
  uint64_t* w = key_.data();

  auto touch = [&](ObjId o) {
    if (o != interp::kNull && canon[o] == 0) {
      order[reached++] = o;
      canon[o] = reached;
    }
  };
  auto put_value = [&](const Value& v) {
    uint64_t payload = static_cast<uint64_t>(v.i);
    if (v.kind == Value::Ref) {
      touch(v.ref);
      payload = canon[v.ref];
    }
    if ((payload + (uint64_t{1} << 60)) >> 61 == 0) {
      *w++ = payload << 3 | v.kind;
    } else {
      *w++ = 4 | v.kind;
      *w++ = payload;
    }
  };

  for (const Value& v : s.globals) put_value(v);
  for (size_t tid = 0; tid < s.threads.size(); ++tid) {
    const Thread& t = s.threads[tid];
    if (t.status != ThreadStatus::Runnable) {
      *w++ = static_cast<uint64_t>(t.status);
      put_value(t.ret);
      continue;
    }
    std::span<const interp::Link> links = s.links_of(static_cast<uint32_t>(tid));
    *w++ = static_cast<uint64_t>(t.status) |
           uint64_t{static_cast<uint32_t>(t.proc)} << 8;
    *w++ = t.pc | uint64_t{t.sp} << 32;
    *w++ = t.frame_size | uint64_t{links.size()} << 32;
    for (const Value& v : s.frame(tid)) put_value(v);
    for (const Value& v : s.stack(tid)) put_value(v);
    for (const interp::Link& l : links)
      if (l.key.kind != LocKey::Global) touch(l.key.a);
    for (const Value& v : s.tls(tid)) put_value(v);
    put_value(t.ret);
    // (kind, canonical target, cell, valid bit), sorted as the reference
    // sorts them.
    link_words_.clear();
    for (const interp::Link& l : links) {
      const uint32_t a = l.key.kind == LocKey::Global ? l.key.a : canon[l.key.a];
      link_words_.emplace_back(uint64_t{l.key.kind} << 32 | a,
                               uint64_t{l.key.b} << 1 | link_valid(s, l));
    }
    std::sort(link_words_.begin(), link_words_.end());
    for (const auto& [w0, w1] : link_words_) {
      *w++ = w0;
      *w++ = w1;
    }
  }
  for (uint32_t i = 0; i < reached; ++i) {
    interp::ConstObjView obj = s.obj(order[i]);
    const uint32_t cls = obj.hdr.cls.valid() ? obj.hdr.cls.idx + 1 : 0u;
    *w++ = cls | uint64_t{obj.hdr.n} << 32;
    *w++ = static_cast<uint32_t>(obj.hdr.lock_owner) |
           uint64_t{obj.hdr.lock_depth} << 32;
    for (const Value& v : obj.fields) put_value(v);
  }
  for (uint32_t i = 0; i < reached; ++i) canon[order[i]] = 0;
  return {key_.data(), static_cast<size_t>(w - key_.data())};
}

// ---------------------------------------------------------------------------
// Scheduling

bool ModelChecker::thread_inside_atomic(const State& s, int tid) const {
  const Thread& t = s.threads[static_cast<size_t>(tid)];
  if (t.status != ThreadStatus::Runnable) return false;
  if (!proc_atomic_[static_cast<size_t>(t.proc)]) return false;
  return t.pc > 0;  // entered but not finished
}

void ModelChecker::choices(const State& s, std::vector<int>& out) const {
  const int n = static_cast<int>(s.threads.size());
  out.clear();

  // Atomic-block reduction: a thread inside a declared-atomic procedure
  // runs to completion before anyone else is considered.
  for (int tid = 0; tid < n; ++tid) {
    if (thread_inside_atomic(s, tid) && interp_.runnable(s, tid)) {
      out.push_back(tid);
      return;
    }
  }

  // Ample-set POR: commit one invisible instruction without interleaving.
  if (opts_.por) {
    for (int tid = 0; tid < n; ++tid) {
      if (interp_.runnable(s, tid) && interp_.next_insn_invisible(s, tid)) {
        out.push_back(tid);
        return;
      }
    }
  }

  for (int tid = 0; tid < n; ++tid) {
    if (interp_.runnable(s, tid)) out.push_back(tid);
  }
}

// ---------------------------------------------------------------------------
// Exploration

namespace {

/// Open-addressing set of 64-bit state hashes: linear probing, at most
/// three quarters full, doubling from a small start (never sized from the
/// state limit). 0 marks an empty slot, so a hash of 0 is stored as 1.
class SeenSet {
 public:
  /// True if `h` was not in the set.
  bool insert(uint64_t h) {
    if (h == 0) h = 1;
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      if (slots_[i] == h) return false;
      if (slots_[i] == 0) {
        slots_[i] = h;
        ++size_;
        return true;
      }
    }
  }

  uint64_t bytes() const { return slots_.size() * sizeof(uint64_t); }

 private:
  void grow() {
    std::vector<uint64_t> old(std::max<size_t>(1024, slots_.size() * 2), 0);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (uint64_t h : old) {
      if (h == 0) continue;
      size_t i = h & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = h;
    }
  }

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

}  // namespace

Result ModelChecker::run(const RunSpec& spec) {
  Result result;
  SeenSet seen;
  auto t0 = std::chrono::steady_clock::now();
  auto finish = [&]() {
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    result.seen_bytes = seen.bytes();
    return result;
  };
  auto report = [&](const std::string& msg) {
    result.error_found = true;
    result.error = msg;
  };

  // Build the initial state and run setup deterministically.
  std::vector<interp::ThreadSpec> specs;
  for (const ThreadPlan& plan : spec.threads) {
    int idx = cp_.find_index(plan.proc);
    SYNAT_ASSERT(idx >= 0, "unknown procedure: " + plan.proc);
    specs.push_back({idx, plan.args});
  }
  State init = interp_.initial_state(specs);

  // Runs `proc` to completion on thread `tid`, then points the thread back
  // at the start of its main procedure (thread-locals and the heap keep
  // what the setup wrote).
  auto run_setup = [&](int tid, const std::string& proc,
                       const std::vector<Value>& args) -> bool {
    int idx = cp_.find_index(proc);
    SYNAT_ASSERT(idx >= 0, "unknown setup procedure: " + proc);
    interp_.start_thread(init, tid, idx, args);
    std::string err;
    StepResult r = interp_.run_thread(init, tid, &err);
    if (r != StepResult::Done) {
      report("setup " + proc + " failed: " + err);
      return false;
    }
    const interp::ThreadSpec& main = specs[static_cast<size_t>(tid)];
    interp_.start_thread(init, tid, main.proc, main.args);
    return true;
  };

  if (!spec.global_init.empty()) {
    if (!run_setup(0, spec.global_init, {})) return finish();
  }
  for (size_t tid = 0; tid < spec.threads.size(); ++tid) {
    const ThreadPlan& plan = spec.threads[tid];
    if (plan.init_proc.empty()) continue;
    if (!run_setup(static_cast<int>(tid), plan.init_proc, plan.init_args))
      return finish();
  }

  auto check_state = [&](const State& s, const std::vector<int>& tids) -> bool {
    if (opts_.invariant) {
      if (auto msg = opts_.invariant(s, interp_)) {
        report("invariant violated: " + *msg);
        return false;
      }
    }
    if (tids.empty()) {
      ++result.final_states;
      if (opts_.report_deadlock) {
        for (const Thread& t : s.threads) {
          if (t.status == ThreadStatus::Runnable) {
            report("deadlock: thread blocked at quiescence");
            return false;
          }
        }
      }
      if (opts_.final_check) {
        if (auto msg = opts_.final_check(s, interp_)) {
          report("final-state check failed: " + *msg);
          return false;
        }
      }
    }
    return true;
  };

  // DFS over hash-compacted states. Frames stay allocated when popped: a
  // successor is copied into the slot above the top, whose vectors keep
  // their capacity, and a duplicate is simply overwritten by the next one.
  struct Frame {
    State state;
    std::vector<int> tids;
    size_t next = 0;
  };
  std::vector<Frame> frames(1);
  frames[0].state = std::move(init);
  seen.insert(hash_key(canonical_key(frames[0].state)));
  result.states = 1;
  choices(frames[0].state, frames[0].tids);
  if (!check_state(frames[0].state, frames[0].tids)) return finish();

  size_t depth = 1;
  std::string err;
  while (depth > 0) {
    if (frames[depth - 1].next >= frames[depth - 1].tids.size()) {
      --depth;
      continue;
    }
    if (frames.size() == depth) frames.emplace_back();
    Frame& top = frames[depth - 1];
    Frame& succ = frames[depth];
    int tid = top.tids[top.next++];
    succ.state = top.state;  // reuses succ's capacity
    StepResult r = interp_.step(succ.state, tid, &err);
    ++result.transitions;
    switch (r) {
      case StepResult::Ok:
      case StepResult::Stuck:
        break;  // Stuck marks the thread infeasible; the state still counts
      case StepResult::Blocked:
      case StepResult::Done:
        continue;  // no new state
      case StepResult::Error:
        report(err);
        return finish();
    }
    if (!seen.insert(hash_key(canonical_key(succ.state)))) continue;
    if (result.states == opts_.max_states) {
      result.hit_state_limit = true;
      return finish();
    }
    ++result.states;
    choices(succ.state, succ.tids);
    succ.next = 0;
    if (!check_state(succ.state, succ.tids)) return finish();
    ++depth;
  }
  return finish();
}

}  // namespace synat::mc
