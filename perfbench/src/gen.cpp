#include "gen.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>

#include "synat/corpus/corpus.h"

namespace perfbench {

uint64_t Rng::next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "global", "threadlocal", "class", "proc",   "local",  "in",
      "loop",   "while",       "if",    "else",   "return", "break",
      "continue", "skip",      "synchronized", "new", "true", "false",
      "null",   "LL",          "SC",    "VL",     "CAS",    "TRUE",
      "assume", "assert",      "int",   "bool"};
  return kw;
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '\'';
}

std::string strip_comments(std::string_view src) {
  std::string out;
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') ++i;
      if (i < src.size()) out += '\n';
      continue;
    }
    out += src[i];
  }
  return out;
}

/// Rewrites every non-keyword identifier through `fn`; numbers, operators
/// and layout are copied unchanged.
std::string rename(std::string_view text,
                   const std::function<std::string(const std::string&)>& fn) {
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])))
        out += text[i++];
    } else if (ident_start(c)) {
      size_t j = i;
      while (j < text.size() && ident_char(text[j])) ++j;
      std::string id(text.substr(i, j - i));
      out += keywords().count(id) ? id : fn(id);
      i = j;
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

/// One top-level item of a shape: a declaration (class, global,
/// threadlocal) or a procedure.
struct Item {
  bool is_proc = false;
  std::string name;
  std::string text;
};

struct Shape {
  std::string name;
  std::vector<Item> decls, procs;
  std::vector<std::string> counted;
};

std::vector<Item> split_items(const std::string& src) {
  std::vector<Item> items;
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < src.size() && std::isspace(static_cast<unsigned char>(src[i])))
      ++i;
  };
  for (skip_ws(); i < src.size(); skip_ws()) {
    size_t start = i;
    size_t j = i;
    while (j < src.size() && ident_char(src[j])) ++j;
    std::string word = src.substr(i, j - i);
    Item item;
    if (word == "global" || word == "threadlocal") {
      size_t semi = src.find(';', j);
      if (semi == std::string::npos) throw std::runtime_error("bad decl");
      i = semi + 1;
      // The declared name is the last identifier before ';'.
      size_t e = semi;
      while (e > start && !ident_char(src[e - 1])) --e;
      size_t b = e;
      while (b > start && ident_char(src[b - 1])) --b;
      item.name = src.substr(b, e - b);
    } else if (word == "class" || word == "proc") {
      size_t brace = src.find('{', j);
      if (brace == std::string::npos) throw std::runtime_error("bad item");
      size_t head_end = word == "proc" ? src.find('(', j) : brace;
      size_t e = head_end;
      while (e > start && !ident_char(src[e - 1])) --e;
      size_t b = e;
      while (b > start && ident_char(src[b - 1])) --b;
      item.name = src.substr(b, e - b);
      int depth = 0;
      size_t k = brace;
      for (; k < src.size(); ++k) {
        if (src[k] == '{') ++depth;
        if (src[k] == '}' && --depth == 0) break;
      }
      i = k + 1;
      item.is_proc = word == "proc";
    } else {
      throw std::runtime_error("unexpected top-level token '" + word + "'");
    }
    item.text = src.substr(start, i - start);
    items.push_back(std::move(item));
  }
  return items;
}

/// Shapes are split once; map nodes keep returned references valid. The
/// benchmark times set-ups on several threads at once, hence the lock.
const Shape& shape(const std::string& name) {
  static std::mutex mu;
  static std::map<std::string, Shape> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  const synat::corpus::Entry& e = synat::corpus::get(name);
  Shape s;
  s.name = name;
  for (Item& item : split_items(strip_comments(e.source)))
    (item.is_proc ? s.procs : s.decls).push_back(std::move(item));
  for (auto c : e.counted_cas) s.counted.emplace_back(c);
  return cache.emplace(name, std::move(s)).first->second;
}

std::string hex_tag(Rng& rng) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "%04x",
                static_cast<unsigned>(rng.below(0x10000)));
  return buf;
}

/// Renames a counted target ("Var" or "Class.field") with `fn`.
std::string rename_counted(const std::string& target,
                           const std::function<std::string(const std::string&)>& fn) {
  size_t dot = target.find('.');
  if (dot == std::string::npos) return fn(target);
  return fn(target.substr(0, dot)) + "." + fn(target.substr(dot + 1));
}

/// A program assembled from clusters of shape replicas: declarations first,
/// then every replica procedure in a seeded interleaving.
struct Builder {
  std::vector<std::string> decls;
  struct P {
    std::string text;
    ProcOrigin origin;
  };
  std::vector<P> procs;
  std::vector<std::string> counted;

  /// Adds one cluster of `replicas` copies of `shape_name`. Cluster globals
  /// and classes get suffix `ctag`; procedures get `ctag` plus a replica
  /// number.
  void add_cluster(const std::string& shape_name, int replicas,
                   const std::string& ctag) {
    const Shape& s = shape(shape_name);
    std::set<std::string> decl_names;
    for (const Item& d : s.decls) decl_names.insert(d.name);
    auto decl_fn = [&](const std::string& id) {
      return decl_names.count(id) ? id + "_" + ctag : id;
    };
    for (const Item& d : s.decls) decls.push_back(rename(d.text, decl_fn));
    for (const std::string& c : s.counted)
      counted.push_back(rename_counted(c, decl_fn));
    for (int r = 0; r < replicas; ++r) {
      std::set<std::string> proc_names;
      for (const Item& p : s.procs) proc_names.insert(p.name);
      std::string rtag = ctag + "r" + std::to_string(r);
      auto fn = [&](const std::string& id) {
        if (proc_names.count(id)) return id + "_" + rtag;
        return decl_fn(id);
      };
      for (const Item& p : s.procs)
        procs.push_back({rename(p.text, fn), {p.name + "_" + rtag, s.name, p.name}});
    }
  }

  GenProgram finish(std::string name) const {
    GenProgram g;
    g.name = std::move(name);
    for (const std::string& d : decls) g.source += d + "\n";
    for (const P& p : procs) {
      g.source += "\n" + p.text + "\n";
      g.procs.push_back(p.origin);
    }
    g.counted = counted;
    return g;
  }
};

/// Appends clusters (shape, replicas) in seeded order, then interleaves the
/// procedures. Cluster tags are unique within the program.
Builder clustered(Rng& rng, std::vector<std::pair<std::string, int>> clusters,
                  const std::string& prefix) {
  rng.shuffle(clusters);
  Builder b;
  for (size_t i = 0; i < clusters.size(); ++i)
    b.add_cluster(clusters[i].first, clusters[i].second,
                  prefix + hex_tag(rng) + "k" + std::to_string(i));
  rng.shuffle(b.procs);
  return b;
}

/// Shapes replicated into wide programs.
const char* const kWideShapes[] = {"nfq_prime",   "treiber_stack",  "herlihy_small",
                                   "gh_large_v1", "locked_counter", "racy_counter"};

/// Shapes of the fleet: every corpus entry whose procedures all have
/// hand-written answers.
const char* const kFleetShapes[] = {
    "nfq",          "nfq_prime",      "herlihy_small",  "gh_large_v1",   "gh_large_v2",
    "gh_large_v3",  "semaphore_down", "treiber_stack",  "michael_malloc", "spinlock",
    "nfq_cas",      "locked_counter", "racy_counter"};

}  // namespace

std::vector<GenProgram> gen_wide(uint64_t seed) {
  Rng rng(seed ^ 0x77696465ull);
  // Each round adds one 4-replica cluster of every wide shape: 44
  // procedures. Programs of 2, 3 and 4 rounds hold 88, 132 and 176.
  const int kReplicas = 4;
  const int rounds[] = {2, 3, 4};
  std::vector<GenProgram> out;
  for (int p = 0; p < 3; ++p) {
    std::vector<std::pair<std::string, int>> clusters;
    for (int r = 0; r < rounds[p]; ++r)
      for (const char* s : kWideShapes) clusters.push_back({s, kReplicas});
    out.push_back(clustered(rng, clusters, "w").finish("wide_" + std::to_string(p) + ".synl"));
  }
  return out;
}

std::vector<GenProgram> gen_fleet(uint64_t seed) {
  Rng rng(seed ^ 0x666c6565ull);
  const int kCopies = 20;
  std::vector<std::string> order;
  for (int c = 0; c < kCopies; ++c)
    for (const char* s : kFleetShapes) order.push_back(s);
  rng.shuffle(order);
  std::vector<GenProgram> out;
  std::set<std::string> tags;
  for (size_t i = 0; i < order.size(); ++i) {
    std::string tag;
    do {
      tag = "f";
      tag += hex_tag(rng);
      tag += hex_tag(rng);
    } while (!tags.insert(tag).second);
    auto fn = [&](const std::string& id) { return id + "_" + tag; };
    const Shape& s = shape(order[i]);
    GenProgram g;
    char name[64];
    std::snprintf(name, sizeof name, "fleet_%03zu.synl", i);
    g.name = name;
    for (const Item& d : s.decls) g.source += rename(d.text, fn) + "\n";
    for (const Item& p : s.procs) {
      g.source += "\n" + rename(p.text, fn) + "\n";
      g.procs.push_back({fn(p.name), s.name, p.name});
    }
    for (const std::string& c : s.counted) g.counted.push_back(rename_counted(c, fn));
    out.push_back(std::move(g));
  }
  return out;
}

const char* to_string(EditKind k) {
  switch (k) {
    case EditKind::Resubmit: return "resubmit";
    case EditKind::Edit: return "edit";
    case EditKind::Add: return "add";
    case EditKind::Remove: return "remove";
  }
  return "?";
}

EditSession gen_session(uint64_t seed, int client, size_t length,
                        const ServeRules& rules) {
  Rng rng(seed ^ (0x73657276ull + static_cast<uint64_t>(client) * 0x1000193ull));
  // 48 procedures: 12 + 6 + 4 + 4 + 10 + 12.
  const std::string prefix = "s" + std::to_string(client);
  Builder b = clustered(rng,
                        {{"nfq_prime", 4},
                         {"treiber_stack", 3},
                         {"herlihy_small", 4},
                         {"gh_large_v1", 4},
                         {"locked_counter", 5},
                         {"racy_counter", 6}},
                        prefix);
  const std::string session_tag = prefix + hex_tag(rng);

  // Edits rewrite the `return t;` of a counter's Get: a new body with the
  // same layout and the same shared accesses.
  std::vector<size_t> editable;
  for (size_t i = 0; i < b.procs.size(); ++i)
    if (b.procs[i].origin.original == "Get") editable.push_back(i);

  // Added procedures are racy-counter Inc replicas on a fresh global each,
  // appended after the base program. Structural requests add twice, then
  // alternate remove and add, removing the oldest: the program holds 49 or
  // 50 procedures from then on, and since one added procedure always stays,
  // the set of added globals (and with it the declarations and the
  // interference universe) never repeats.
  struct Added {
    std::string decl, proc;
    ProcOrigin origin;
  };
  std::vector<Added> added;  // window [lo, added.size())
  size_t lo = 0;
  uint64_t next_edit = 1;

  auto render = [&](const std::string& name) {
    GenProgram g = b.finish(name);
    for (size_t i = lo; i < added.size(); ++i) {
      g.source += "\n" + added[i].decl + "\n" + added[i].proc + "\n";
      g.procs.push_back(added[i].origin);
    }
    return g;
  };

  EditSession session;
  session.initial = render("session_" + std::to_string(client) + ".synl");
  std::vector<EditKind> block;
  while (session.requests.size() < length) {
    if (block.empty()) {
      // A block of 20: 10 resubmits, 7 single-body edits, 3 structural.
      block.assign(10, EditKind::Resubmit);
      block.insert(block.end(), 7, EditKind::Edit);
      block.insert(block.end(), 3, EditKind::Add);
      rng.shuffle(block);
    }
    EditKind k = block.back();
    block.pop_back();
    if (k == EditKind::Add && added.size() - lo >= 2) k = EditKind::Remove;
    EditRequest req;
    req.kind = k;
    switch (k) {
      case EditKind::Resubmit:
        req.expect_reanalyzed = rules.resubmit;
        break;
      case EditKind::Edit: {
        Builder::P& p = b.procs[editable[rng.below(editable.size())]];
        size_t at = p.text.rfind("return t");
        size_t semi = p.text.find(';', at);
        p.text.replace(at, semi - at,
                       "return t + " + std::to_string(next_edit++));
        req.expect_reanalyzed = rules.edit;
        break;
      }
      case EditKind::Add: {
        std::string n = std::to_string(added.size());
        std::string g = "G_" + session_tag + "_" + n;
        std::string pn = "Inc_" + session_tag + "_" + n;
        added.push_back({"global int " + g + ";",
                         "proc " + pn + "() {\n  local t := " + g +
                             " in {\n    " + g + " := t + 1;\n  }\n}",
                         {pn, "racy_counter", "Inc"}});
        break;
      }
      case EditKind::Remove:
        ++lo;
        break;
    }
    req.program = render(session.initial.name);
    if (k == EditKind::Add || k == EditKind::Remove) {
      bool all = k == EditKind::Add ? rules.add_all : rules.remove_all;
      req.expect_reanalyzed = all ? req.program.procs.size() : 0;
    }
    session.requests.push_back(std::move(req));
  }
  return session;
}

bool write_programs(const std::string& dir,
                    const std::vector<GenProgram>& programs,
                    const std::vector<std::string>& notes) {
  std::ofstream manifest(dir + "/MANIFEST");
  if (!manifest) return false;
  manifest << "# `synat batch` takes no counted-CAS targets, so programs that\n"
              "# need them replay through `synat analyze FILE --counted T...`.\n";
  for (size_t i = 0; i < programs.size(); ++i) {
    const GenProgram& g = programs[i];
    std::ofstream f(dir + "/" + g.name);
    if (!f) return false;
    f << g.source;
    if (i < notes.size() && !notes[i].empty()) manifest << "# " << notes[i] << "\n";
    if (g.counted.empty()) {
      manifest << "synat batch --format json " << g.name << "\n";
      continue;
    }
    manifest << "synat analyze " << g.name;
    for (const std::string& c : g.counted) manifest << " --counted " << c;
    manifest << "\n";
  }
  return static_cast<bool>(manifest);
}

}  // namespace perfbench
