// Reconciler configuration, including the ablation switches that define the
// paper's experimental variants (Table 5 / Figure 6).

#ifndef RECON_CORE_OPTIONS_H_
#define RECON_CORE_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/budget.h"

namespace recon {

/// User feedback on specific reference pairs (paper §7: "use user feedback
/// to adjust similarity functions and improve future reconciliation").
/// Confirmed matches act like key-attribute equality; confirmed
/// non-matches become non-merge constraints, with all of §3.4's negative
/// propagation applied to them.
struct Feedback {
  std::vector<std::pair<int32_t, int32_t>> same;
  std::vector<std::pair<int32_t, int32_t>> distinct;

  bool empty() const { return same.empty() && distinct.empty(); }
};

/// Cumulative evidence levels of the component-contribution study (§5.3).
/// Each level includes everything below it.
enum class EvidenceLevel {
  kAttrWise = 0,  ///< Same-attribute comparisons only (names, emails, ...).
  kNameEmail,     ///< + cross-attribute name vs email evidence.
  kArticle,       ///< + article <-> person and article <-> venue wiring.
  kContact,       ///< + common coAuthor / emailContact weak evidence.
};

/// Execution modes of Table 5, as two orthogonal switches:
///   TRADITIONAL = {false, false}, PROPAGATION = {true, false},
///   MERGE = {false, true}, FULL = {true, true}.
struct ReconcilerOptions {
  EvidenceLevel evidence_level = EvidenceLevel::kContact;

  /// Reconciliation propagation (§3.2): re-activate dependent nodes when a
  /// similarity increases or a pair merges. Off = one pass in dependency
  /// order.
  bool propagation = true;

  /// Reference enrichment (§3.3): fold the pair nodes of merged references
  /// so attribute values and evidence accumulate.
  bool enrichment = true;

  /// Negative evidence (§3.4): non-merge constraints and their
  /// post-fixpoint propagation.
  bool constraints = true;

  /// User-confirmed matches and non-matches, injected into the graph as
  /// merged / non-merge nodes before the fixed point.
  Feedback feedback;

  /// Key-attribute pre-merging (§3.4): collapse Person references sharing
  /// an email address before building the graph. A large speedup on
  /// email-heavy datasets, and required for very popular entities whose
  /// raw blocks would be unmanageable. Applies to IndepDec as well (equal
  /// emails are a key under either algorithm).
  bool premerge_equal_emails = true;

  /// Byte bound for the pairwise similarity memo that sits on the interned
  /// value store's precomputed features (DESIGN.md §11). The effective
  /// bound is the minimum of this and the headroom under
  /// Budget::soft_max_memory_bytes; a bound too small to be useful turns
  /// the memo into a pass-through (never an abort). Output is identical at
  /// every bound.
  int64_t sim_memo_max_bytes = int64_t{64} << 20;

  /// Queue discipline (§3.2): when a pair merges, its strong-boolean
  /// dependents are inserted at the *front* of the queue. Off = FIFO for
  /// everything; exposed for the queue-discipline ablation bench.
  bool strong_neighbors_jump_queue = true;

  /// Candidate generation: blocks larger than this are skipped (their key
  /// is too common to be discriminative).
  int max_block_size = 1000;
  /// Disable blocking entirely (all same-class pairs become candidates).
  /// Only sensible for small datasets and the blocking ablation bench.
  bool use_blocking = true;

  /// Threads for the parallel phases of the graph build: candidate
  /// generation (blocking-key extraction) and pairwise evidence staging.
  /// The fixed-point solve always drains its queue on the calling thread.
  /// 0 = all hardware threads, 1 = run everything on the calling thread.
  /// Output is identical for every value (see runtime/parallel.h).
  int num_threads = 1;

  /// Execution budget for one run (one batch Run() or one incremental
  /// Flush()): wall-clock deadline, solver iteration and merge limits,
  /// soft memory cap. Default = unlimited. Exhaustion never aborts: the
  /// pipeline freezes the solve at the next probe point, still enforces
  /// constraints and computes the transitive closure, and reports the
  /// StopReason in ReconcileStats (DESIGN.md §10). Iteration/merge-budget
  /// stops are byte-identical at every thread count; deadline stops are
  /// wall-clock-dependent by nature.
  Budget budget;

  /// Test-only seam: observes every budget probe and may inject stops
  /// deterministically (util/fault_injection.h). Leave null in production.
  std::shared_ptr<ProbeHook> probe_hook;

  /// Returns the DepGraph configuration (the paper's full algorithm).
  static ReconcilerOptions DepGraph() { return ReconcilerOptions{}; }

  /// Returns the IndepDec configuration: attribute-wise evidence, one pass,
  /// no enrichment, no constraints — the "candidate standard reference
  /// reconciliation approach" of §5.2. This mode is the repository's one
  /// IndepDec; the benches, tools and CLI run it through Reconciler.
  static ReconcilerOptions IndepDec() {
    ReconcilerOptions options;
    options.evidence_level = EvidenceLevel::kAttrWise;
    options.propagation = false;
    options.enrichment = false;
    options.constraints = false;
    return options;
  }
};

}  // namespace recon

#endif  // RECON_CORE_OPTIONS_H_
