// The four benchmark workloads. Each makes its inputs from the seed,
// measures for the requested time, checks every output against the answer
// file and returns its metrics: the end-to-end set on an untraced run, the
// per-layer set on a traced one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expected.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;  ///< programs analyzed, RPCs sent, mc rows run
  uint64_t failed = 0;     ///< of those, the ones that produced no verdict
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines for the log
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; mismatches land in `checker`.
Outcome run_workload(const RunOptions& opts, const Expected& expected,
                     Checker& checker);

}  // namespace perfbench
