#include "expected.h"

#include <fstream>
#include <sstream>

#include "synat/serve/json.h"

namespace perfbench {

using synat::serve::JsonValue;

bool load_expected(const std::string& path, Expected& out, std::string& err) {
  std::ifstream f(path);
  if (!f) {
    err = "cannot read " + path;
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  synat::serve::JsonParse p = synat::serve::parse_json(ss.str());
  if (!p.ok) {
    err = path + ": " + p.error;
    return false;
  }
  const JsonValue* shapes = p.value.get("shapes");
  const JsonValue* mc = p.value.get("mc");
  const JsonValue* serve = p.value.get("serve");
  if (!shapes || !shapes->is_object() || !mc || !serve) {
    err = path + ": needs objects 'shapes', 'mc' and 'serve'";
    return false;
  }
  for (const auto& [name, s] : shapes->members) {
    const JsonValue* procs = s.get("procs");
    const JsonValue* source = s.get("source");
    if (!procs || !procs->is_object() || !source || !source->is_string() ||
        source->str.empty()) {
      err = path + ": shape '" + name + "' needs 'procs' and a 'source' citation";
      return false;
    }
    for (const auto& [proc, v] : procs->members) {
      if (!v.is_bool()) {
        err = path + ": verdict " + name + "." + proc + " must be a boolean";
        return false;
      }
      out.verdicts[name][proc] = v.boolean;
    }
  }
  const JsonValue* rows = mc->get("rows");
  if (!rows || !rows->is_object()) {
    err = path + ": mc.rows missing";
    return false;
  }
  for (const auto& [name, r] : rows->members) {
    McExpect m;
    if (const JsonValue* s = r.get("states"); s && s->is_number()) {
      m.has_states = true;
      m.states = static_cast<uint64_t>(s->number);
    }
    if (const JsonValue* e = r.get("error"); e && e->is_bool()) m.error = e->boolean;
    out.mc[name] = m;
  }
  const JsonValue* rules = serve->get("procedures_reanalyzed");
  auto num = [&](const char* k, uint64_t& v) {
    const JsonValue* x = rules ? rules->get(k) : nullptr;
    if (!x || !x->is_number()) return false;
    v = static_cast<uint64_t>(x->number);
    return true;
  };
  auto all = [&](const char* k, bool& v) {
    const JsonValue* x = rules ? rules->get(k) : nullptr;
    v = x && x->is_string() && x->str == "all";
    return x != nullptr;
  };
  if (!num("resubmit", out.serve.resubmit) || !num("edit", out.serve.edit) ||
      !all("add", out.serve.add_all) || !all("remove", out.serve.remove_all)) {
    err = path + ": serve.procedures_reanalyzed needs resubmit, edit, add, remove";
    return false;
  }
  return true;
}

void Checker::fail(std::string msg) { errors_.push_back(std::move(msg)); }

void Checker::equal(const std::string& what, uint64_t got, uint64_t want) {
  if (got != want)
    fail(what + ": got " + std::to_string(got) + ", expected " +
         std::to_string(want));
}

bool Checker::expected_atomic(const ProcOrigin& o, bool& atomic) {
  auto s = e_.verdicts.find(o.shape);
  if (s == e_.verdicts.end()) return false;
  auto p = s->second.find(o.original);
  if (p == s->second.end()) return false;
  atomic = p->second;
  return true;
}

void Checker::program(const synat::driver::ProgramReport& pr,
                      const GenProgram& g) {
  if (pr.status != synat::driver::ProgramStatus::Ok) {
    fail(g.name + ": status " + std::string(synat::driver::to_string(pr.status)));
    return;
  }
  if (pr.procs.size() != g.procs.size()) {
    fail(g.name + ": " + std::to_string(pr.procs.size()) + " procedure reports, expected " +
         std::to_string(g.procs.size()));
    return;
  }
  for (size_t i = 0; i < g.procs.size(); ++i) {
    const ProcOrigin& o = g.procs[i];
    const synat::driver::ProcReport& r = *pr.procs[i];
    bool want = false;
    if (!expected_atomic(o, want)) {
      fail(g.name + ": no answer for " + o.shape + "." + o.original);
    } else if (r.name != o.name || r.degraded || r.atomic != want) {
      fail(g.name + ": " + o.name + " (" + o.shape + "." + o.original +
           ") reported " + r.name + (r.degraded ? " degraded" : "") +
           (r.atomic ? " atomic" : " not atomic") + ", expected " +
           (want ? "atomic" : "not atomic"));
    }
  }
}

void Checker::report_json(const std::string& report, const GenProgram& g) {
  synat::serve::JsonParse p = synat::serve::parse_json(report);
  const JsonValue* programs = p.ok ? p.value.get("programs") : nullptr;
  if (!programs || !programs->is_array() || programs->items.size() != 1) {
    fail(g.name + ": unreadable served report");
    return;
  }
  const JsonValue& prog = programs->items[0];
  const JsonValue* status = prog.get("status");
  const JsonValue* procs = prog.get("procedures");
  if (!status || status->str != "ok" || !procs || !procs->is_array() ||
      procs->items.size() != g.procs.size()) {
    fail(g.name + ": served report has wrong status or procedure count");
    return;
  }
  for (size_t i = 0; i < g.procs.size(); ++i) {
    const ProcOrigin& o = g.procs[i];
    const JsonValue* name = procs->items[i].get("name");
    const JsonValue* atomic = procs->items[i].get("atomic");
    bool want = false;
    if (!expected_atomic(o, want)) {
      fail(g.name + ": no answer for " + o.shape + "." + o.original);
    } else if (!name || name->str != o.name || !atomic ||
               atomic->boolean != want || procs->items[i].get("degraded")) {
      fail(g.name + ": served verdict for " + o.name + " differs from " +
           o.shape + "." + o.original);
    }
  }
}

void Checker::verdict(const std::string& where, const ProcOrigin& o,
                      bool atomic) {
  bool want = false;
  if (!expected_atomic(o, want))
    fail(where + ": no answer for " + o.shape + "." + o.original);
  else if (atomic != want)
    fail(where + ": " + o.name + " (" + o.shape + "." + o.original + ") " +
         (atomic ? "atomic" : "not atomic") + ", expected " +
         (want ? "atomic" : "not atomic"));
}

bool Checker::mc_row(const std::string& row, uint64_t states, bool error_found,
                     bool hit_limit, uint64_t budget) {
  const size_t before = errors_.size();
  auto it = e_.mc.find(row);
  if (it == e_.mc.end()) {
    // Budget rows have no pinned count: they must reach the state budget
    // without finding an error.
    if (error_found || !hit_limit || states < budget)
      fail("mc " + row + ": expected to reach the " + std::to_string(budget) +
           "-state budget without error, got " + std::to_string(states) +
           (error_found ? " states and an error" : " states"));
    return errors_.size() == before;
  }
  const McExpect& m = it->second;
  if (error_found != m.error)
    fail("mc " + row + (error_found ? ": unexpected error" : ": missed the expected error"));
  if (m.has_states) equal("mc " + row + " states", states, m.states);
  if (!m.error && hit_limit) fail("mc " + row + ": hit the state limit");
  return errors_.size() == before;
}

}  // namespace perfbench
