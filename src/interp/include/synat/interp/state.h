// Interpreter state: a full program configuration (globals, heap, threads).
//
// The state is flat: every part lives in a handful of vectors of trivially
// copyable elements, so copying a state (the model checker does it once per
// transition) is a few memcpys and, into a state whose vectors already have
// the capacity, allocates nothing.
//   - Heap cells of all objects are pooled in `Heap::cells`, with SC
//     versions in the parallel `Heap::versions`; an object is a header
//     naming its cell range, and `obj(o)` returns a view over it.
//   - Each thread owns a fixed-size region of `tvals` holding its
//     thread-locals, its frame and its operand stack (`Thread::sp` deep).
//     The region is sized once, from the compiled program, to fit the
//     largest frame plus operand stack of any procedure.
//   - LL reservations of all threads are one vector sorted by (thread,
//     location).
//
// LL/SC is modelled with per-location version counters: LL records the
// current version in the thread's link set; SC succeeds iff the recorded
// version is still current, and bumps it (plain writes do not break links,
// matching the paper's Section 3.1 semantics where only successful SCs
// count as writes for link purposes). Absolute version numbers are
// exploration artifacts; the model checker canonicalizes them to validity
// bits when hashing states.
#pragma once

#include <span>
#include <vector>

#include "synat/interp/value.h"
#include "synat/synl/ast.h"

namespace synat::interp {

struct ObjHeader {
  synl::ClassId cls;        ///< invalid => this is an array
  uint32_t first = 0;       ///< first cell in Heap::cells
  uint32_t n = 0;           ///< number of fields or elements
  int32_t lock_owner = -1;  ///< thread id holding the object's lock
  uint32_t lock_depth = 0;
};

/// One heap object: its header and its cells.
template <class H, class V, class Ver>
struct BasicObjView {
  H& hdr;
  std::span<V> fields;       ///< fields or elements
  std::span<Ver> versions;   ///< per-cell SC version
};
using ObjView = BasicObjView<ObjHeader, Value, uint64_t>;
using ConstObjView = BasicObjView<const ObjHeader, const Value, const uint64_t>;

struct Heap {
  std::vector<ObjHeader> objs;     ///< ObjId o lives at objs[o - 1]
  std::vector<Value> cells;        ///< every object's cells, pooled
  std::vector<uint64_t> versions;  ///< per-cell SC version, parallel to cells

  size_t size() const { return objs.size(); }
};

enum class ThreadStatus : uint8_t {
  Runnable,
  Done,   ///< returned from its top-level procedure
  Stuck,  ///< failed an Assume; this path is infeasible
};

struct Thread {
  int proc = -1;  ///< index into CompiledProgram::procs
  uint32_t pc = 0;
  uint32_t frame_size = 0;  ///< frame slots of `proc`
  uint32_t sp = 0;          ///< operand stack depth
  ThreadStatus status = ThreadStatus::Done;
  Value ret;  ///< return value once Done
};

/// An LL reservation: thread `tid` observed `version` at `key`.
struct Link {
  uint32_t tid = 0;
  LocKey key;
  uint64_t version = 0;
};

struct State {
  std::vector<Value> globals;
  std::vector<uint64_t> global_versions;
  Heap heap;
  std::vector<Thread> threads;
  /// Per-thread regions of `stride` values: `num_tls` thread-locals, then
  /// the frame, then the operand stack.
  std::vector<Value> tvals;
  uint32_t num_tls = 0;
  uint32_t stride = 0;
  std::vector<Link> links;  ///< sorted by (tid, key)

  ObjView obj(ObjId o) {
    ObjHeader& h = heap.objs[o - 1];
    return {h, {heap.cells.data() + h.first, h.n},
            {heap.versions.data() + h.first, h.n}};
  }
  ConstObjView obj(ObjId o) const {
    const ObjHeader& h = heap.objs[o - 1];
    return {h, {heap.cells.data() + h.first, h.n},
            {heap.versions.data() + h.first, h.n}};
  }
  bool valid_ref(ObjId o) const { return o != kNull && o <= heap.size(); }

  Value* region(size_t tid) { return tvals.data() + tid * stride; }
  const Value* region(size_t tid) const { return tvals.data() + tid * stride; }
  std::span<Value> tls(size_t tid) { return {region(tid), num_tls}; }
  std::span<const Value> tls(size_t tid) const { return {region(tid), num_tls}; }
  std::span<Value> frame(size_t tid) {
    return {region(tid) + num_tls, threads[tid].frame_size};
  }
  std::span<const Value> frame(size_t tid) const {
    return {region(tid) + num_tls, threads[tid].frame_size};
  }
  /// The operand stack, bottom first.
  std::span<const Value> stack(size_t tid) const {
    return {region(tid) + num_tls + threads[tid].frame_size, threads[tid].sp};
  }
  /// Room for the operand stack of a thread whose frame has `frame_size`
  /// slots.
  uint32_t stack_capacity(uint32_t frame_size) const {
    return stride - num_tls - frame_size;
  }

  /// Thread `tid`'s reservations: a contiguous, key-sorted range of `links`.
  std::span<const Link> links_of(uint32_t tid) const;
  /// The reservation of `tid` at `key`, or null.
  const Link* find_link(uint32_t tid, const LocKey& key) const;
  /// Records (or refreshes) `tid`'s reservation at `key`.
  void set_link(uint32_t tid, const LocKey& key, uint64_t version);
  void clear_links(uint32_t tid);
};

}  // namespace synat::interp
