// The hand-written answer file (expected.json) and the checks that hold
// every benchmark output against it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.h"
#include "synat/driver/report.h"

namespace perfbench {

struct McExpect {
  bool has_states = false;
  uint64_t states = 0;
  bool error = false;
};

struct Expected {
  /// shape -> original procedure -> atomic
  std::map<std::string, std::map<std::string, bool>> verdicts;
  std::map<std::string, McExpect> mc;  ///< by row name
  ServeRules serve;
};

/// Loads and validates the answer file; false with `err` set on any
/// malformed or missing entry.
bool load_expected(const std::string& path, Expected& out, std::string& err);

/// Collects mismatches between outputs and answers. A checker never throws:
/// every problem becomes one line in `errors`.
class Checker {
 public:
  explicit Checker(const Expected& e) : e_(e) {}

  /// One analyzed program: status ok, one report per generated procedure,
  /// names in order, nothing degraded, every verdict as expected.
  void program(const synat::driver::ProgramReport& pr, const GenProgram& g);
  /// The same checks on a rendered schema-v5 report (the serve path).
  void report_json(const std::string& report, const GenProgram& g);
  /// One verdict computed outside the driver (the layer replay).
  void verdict(const std::string& where, const ProcOrigin& o, bool atomic);
  /// One model-checker row; false when the result is unexpected.
  bool mc_row(const std::string& row, uint64_t states, bool error_found,
              bool hit_limit, uint64_t budget);
  void equal(const std::string& what, uint64_t got, uint64_t want);
  void fail(std::string msg);

  size_t mismatches() const { return errors_.size(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  bool expected_atomic(const ProcOrigin& o, bool& atomic);

  const Expected& e_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
