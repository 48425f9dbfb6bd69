// Atomicity inference: the seven-step algorithm of paper Section 5.4.
//
//  Step 0 (Section 5.2): replace each procedure by its exceptional variants.
//  Step 1: local actions are B; lock acquire R; lock release L.
//  Step 2: when every update of a variable goes through SC, successful
//          SC/VL on it are L and their matching LLs are R (Theorem 5.3);
//          CAS analogue for counted (ABA-protected) targets.
//  Step 3: infer local conditions of local blocks (Section 5.3).
//  Step 4: per global read/write, decide whether a conflicting access from
//          another thread can be adjacent, using locks (Theorem 5.1),
//          successful-SC windows (Theorem 5.4) and condition-disjoint
//          blocks (Theorem 5.5); assign L/R/B accordingly and meet with the
//          earlier classification.
//  Step 5: unclassified actions get A.
//  Step 6: propagate through the AST with join / seq / iterative closure.
//  Step 7: a procedure is atomic iff every variant's body is ⊑ A.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "synat/analysis/proc_analysis.h"
#include "synat/atomicity/types.h"
#include "synat/atomicity/variants.h"
#include "synat/obs/provenance.h"
#include "synat/support/budget.h"
#include "synat/support/diag.h"

namespace synat::atomicity {

using cfg::EventId;
using synl::StmtId;

struct InferOptions {
  VariantOptions variant_opts;
  /// Theorem 5.4 successful-SC window exclusions (ablation E8-ii).
  bool use_window_rule = true;
  /// Theorem 5.5 local-condition exclusions (ablation E8-iii).
  bool use_local_conditions = true;
  /// Treat CAS targets as ABA-protected (modification counters), enabling
  /// the CAS analogues of Theorems 5.3/5.4. The paper assumes the counter
  /// discipline for the algorithms of Section 6.4; list the protected
  /// locations as "Var" (global) or "Class.field" strings, or "*" for all.
  std::vector<std::string> counted_cas;
  /// When non-empty, only the named procedures are classified and reported
  /// (steps 1-7). Every procedure still contributes its variants to the
  /// cross-thread conflict universe, so the results for the selected
  /// procedures are identical to a whole-program run. Used by the batch
  /// driver to classify only the procedures its result cache misses.
  std::vector<std::string> only_procs;
  /// Record a structured justification for every classification decision
  /// (DESIGN.md §3f): which step fired, citing which theorem, on which
  /// event, with conflict witnesses. Off by default — collection costs a
  /// record per classified event. Part of the driver's cache fingerprint.
  bool provenance = false;
};

struct VariantResult {
  synl::ProcId variant;
  Atomicity atomicity = Atomicity::N;  ///< of the variant body
  std::unordered_map<uint32_t, Atomicity> event_atom;  ///< EventId.idx -> type
  std::unordered_map<uint32_t, Atomicity> stmt_atom;   ///< StmtId.idx -> type
  std::shared_ptr<analysis::ProcAnalysis> pa;
  /// Per-event and per-variant derivation records, in deterministic
  /// (event-index, then emission) order. Empty unless
  /// InferOptions::provenance.
  std::vector<obs::ProvenanceRecord> prov;
};

struct ProcResult {
  synl::ProcId proc;
  bool atomic = false;
  Atomicity atomicity = Atomicity::N;  ///< join over variant bodies
  bool no_variants = false;  ///< pure non-terminating loop: trivially atomic
  bool bailed_out = false;
  /// Set when the procedure exceeded VariantOptions::max_variants: it is
  /// left unclassified (no variants, not atomic) and this carries the
  /// budget slug and why. Its conservative clone still joins the conflict
  /// universe, so every other procedure's result is unaffected.
  std::optional<BudgetExceeded> over_budget;
  std::vector<VariantResult> variants;
  /// Procedure-level derivation records (step 0 variant/purity facts and
  /// the step 7 verdict). Empty unless InferOptions::provenance.
  std::vector<obs::ProvenanceRecord> prov;
};

/// Deterministic work counts of one inference run. They measure the engine,
/// not the program, and are never rendered into reports.
struct InferWork {
  /// Conflict-universe entries visited by step-4 conflict scans.
  size_t step4_candidates = 0;
  /// Theorem 5.5 premise evaluations that missed the per-path memo.
  size_t premise_evals = 0;
};

class AtomicityResult {
 public:
  const std::vector<ProcResult>& procs() const { return procs_; }
  const ProcResult* result_for(synl::ProcId proc) const {
    for (const ProcResult& r : procs_)
      if (r.proc == proc) return &r;
    return nullptr;
  }
  bool all_atomic() const {
    for (const ProcResult& r : procs_)
      if (!r.atomic) return false;
    return !procs_.empty();
  }

  /// Annotated listing of a variant in the style of the paper's Figure 3:
  /// one line per statement, prefixed with its atomicity type.
  std::string listing(const synl::Program& prog, const VariantResult& v) const;
  /// Listing of every variant of every procedure.
  std::string full_listing(const synl::Program& prog) const;

  const InferWork& work() const { return work_; }

 private:
  friend class InferEngine;
  std::vector<ProcResult> procs_;
  InferWork work_;
};

/// Runs the complete analysis. Appends exceptional variants to `prog`.
AtomicityResult infer_atomicity(synl::Program& prog, DiagEngine& diags,
                                const InferOptions& opts = {});

/// Content/interference fingerprints for fine-grained result caching.
///
/// A procedure's verdict is a function of (a) its own body and source
/// layout, (b) the program's declarations, and (c) the *interference
/// signature* of every procedure in the program — the projection of each
/// variant context that steps 2/4 read across contexts: region lists
/// (kind, shared-variable alias class, condition), global-action events
/// (kind, path alias class, lock set, region membership). Two programs
/// with equal `content[p]` and equal `universe` therefore give procedure
/// `p` byte-identical reports, even if other procedure bodies differ —
/// this is what lets the driver cache (and `synat serve`) re-analyze only
/// edited procedures instead of the whole program.
struct ProgramFingerprint {
  /// False when the program could not be fingerprinted precisely (broken
  /// procedures, variant budget trip mid-fingerprint, reparse failure);
  /// callers must fall back to whole-program keying.
  bool complete = false;
  /// Declarations + every procedure's interference signature. Shared by
  /// all procedures of the program.
  uint64_t universe = 0;
  /// Per original procedure, in declaration order: the procedure's own
  /// printed body plus its statement source layout (reports render line
  /// numbers, so layout is part of the result's identity).
  std::vector<uint64_t> content;
};

/// Computes the fingerprint without running steps 1-7 (it pays variant
/// generation and per-variant CFG analysis, not the quadratic conflict
/// scan). Never appends to `prog`: the universe is built from a private
/// reparse. Honors `opts.variant_opts.budget`; a trip yields an incomplete
/// fingerprint instead of throwing.
ProgramFingerprint fingerprint_program(const synl::Program& prog,
                                       const InferOptions& opts = {});

}  // namespace synat::atomicity
