// Seeded input generator for the synat benchmark.
//
// Every generated program is built from the corpus's paper shapes by
// identifier renaming, so each procedure's expected verdict is the verdict
// of the shape procedure it was renamed from (expected.json). The seed picks
// names, cluster order and procedure interleaving; the amount of work (which
// shapes, how many replicas, how many procedures) is fixed per workload so
// that runs with different seeds measure the same work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a fully specified generator, so inputs are byte-identical
/// for a seed on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next();
  /// Uniform-ish integer in [0, n); n > 0.
  uint64_t below(uint64_t n) { return next() % n; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  uint64_t s_;
};

/// One procedure of a generated program and where its answer comes from.
struct ProcOrigin {
  std::string name;      ///< name in the generated program
  std::string shape;     ///< corpus entry it was renamed from
  std::string original;  ///< procedure name in that entry
};

struct GenProgram {
  std::string name;                 ///< display name, also the file name
  std::string source;               ///< SYNL text
  std::vector<std::string> counted; ///< counted CAS targets, renamed
  std::vector<ProcOrigin> procs;    ///< declaration order
};

/// `wide_program`: a few programs of about 100-200 procedures, built from
/// clusters of replicas (replicas share their cluster's globals; clusters
/// share nothing).
std::vector<GenProgram> gen_wide(uint64_t seed);

/// `program_fleet`: a few hundred small programs, each a full alpha-renaming
/// of one corpus entry (every identifier renamed, so no two programs share
/// a cache key).
std::vector<GenProgram> gen_fleet(uint64_t seed);

/// One request of an edit session.
enum class EditKind : uint8_t { Resubmit, Edit, Add, Remove };
const char* to_string(EditKind k);

struct EditRequest {
  EditKind kind = EditKind::Resubmit;
  GenProgram program;               ///< full program text sent with it
  uint64_t expect_reanalyzed = 0;   ///< from expected.json's serve rules
};

struct EditSession {
  GenProgram initial;               ///< analyzed during set-up (cache warm)
  std::vector<EditRequest> requests;
};

/// expected.json's procedures_reanalyzed rules per request kind; an "all"
/// rule means every procedure of the new program.
struct ServeRules {
  uint64_t resubmit = 0, edit = 1;
  bool add_all = true, remove_all = true;
};
/// `serve_edit_session`: one session per client on its own 48-procedure
/// program, `length` requests long.
EditSession gen_session(uint64_t seed, int client, size_t length,
                        const ServeRules& rules);

/// Writes each program as <dir>/<name> plus <dir>/MANIFEST listing the
/// `synat` command line that replays it, each preceded by its note (if
/// any).
bool write_programs(const std::string& dir,
                    const std::vector<GenProgram>& programs,
                    const std::vector<std::string>& notes = {});

}  // namespace perfbench
