#include "synat/mc/props.h"

namespace synat::mc {

using interp::ObjId;

namespace {

/// Calls `visit` on each node of the list from `head` (inclusive); returns
/// an error string on cycles or dangling references.
template <class Visit>
std::optional<std::string> walk(const State& s, ObjId head, int next_field,
                                Visit&& visit) {
  const size_t guard = s.heap.size() + 1;
  size_t visited = 0;
  for (ObjId cur = head; cur != interp::kNull;) {
    if (!s.valid_ref(cur)) return "dangling reference in list";
    if (visited++ > guard) return "cycle in list";
    visit(cur);
    const Value& next = s.obj(cur).fields[static_cast<size_t>(next_field)];
    if (next.kind != Value::Ref) return "non-reference Next field";
    cur = next.ref;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> walk_list(const State& s, ObjId head,
                                     int next_field,
                                     std::vector<ObjId>& out) {
  return walk(s, head, next_field, [&](ObjId o) { out.push_back(o); });
}

StateCheck queue_wellformed(const ModelChecker& mc, int next_field) {
  int head_slot = mc.global_slot("Head");
  int tail_slot = mc.global_slot("Tail");
  return [=](const State& s, const Interp&) -> std::optional<std::string> {
    ObjId head = s.globals[static_cast<size_t>(head_slot)].ref;
    ObjId tail = s.globals[static_cast<size_t>(tail_slot)].ref;
    if (head == interp::kNull) return std::nullopt;  // before Init
    // Runs at every state: walk without collecting the nodes.
    bool tail_seen = false;
    if (auto err = walk(s, head, next_field,
                        [&](ObjId n) { tail_seen |= n == tail; }))
      return err;
    if (tail_seen) return std::nullopt;
    return "Tail not reachable from Head";
  };
}

StateCheck queue_final_contents(const ModelChecker& mc, int value_field,
                                int next_field,
                                std::multiset<int64_t> expected) {
  int head_slot = mc.global_slot("Head");
  return [=](const State& s, const Interp&) -> std::optional<std::string> {
    ObjId head = s.globals[static_cast<size_t>(head_slot)].ref;
    if (head == interp::kNull) return "queue never initialized";
    std::vector<ObjId> nodes;
    if (auto err = walk_list(s, head, next_field, nodes)) return err;
    std::multiset<int64_t> got;
    for (size_t i = 1; i < nodes.size(); ++i) {  // skip the dummy
      got.insert(s.obj(nodes[i]).fields[static_cast<size_t>(value_field)].i);
    }
    if (got != expected) {
      std::string msg = "queue contents {";
      for (int64_t v : got) msg += std::to_string(v) + ",";
      msg += "} != expected {";
      for (int64_t v : expected) msg += std::to_string(v) + ",";
      msg += "}";
      return msg;
    }
    return std::nullopt;
  };
}

}  // namespace synat::mc
