// The similarity parameters, in one place (paper §5.2).
//
// Every run uses the paper's published settings: merge-threshold 0.85 for
// reference similarities and 1.0 for attribute similarities; beta = 0.1
// (0.2 for Venue); gamma = 0.05; t_rv = 0.7 for Person and Article and 0.1
// for Venue. The S_rv leaf weights (the per-class decision trees) follow
// the template of §4. They are one constant, kSimParams, read directly by
// the similarity functions, the channel table, the graph build, the solver
// and query scoring.

#ifndef RECON_SIM_PARAMS_H_
#define RECON_SIM_PARAMS_H_

namespace recon {

/// Per-class boolean-evidence parameters (paper §4).
struct BooleanEvidenceParams {
  /// Reward per merged strong-boolean incoming neighbor.
  double beta = 0.1;
  /// Reward per merged weak-boolean incoming neighbor.
  double gamma = 0.05;
  /// Minimum S_rv for boolean evidence to apply.
  double t_rv = 0.7;
  /// At most this many weak-boolean neighbors are rewarded — the paper's
  /// suggested refinement ("a higher reward for the first several merged
  /// neighbors and a lower reward for the rest", §4), which keeps shared
  /// social hubs from outvoting weak attribute evidence.
  int max_weak_rewarded = 3;
};

/// Every parameter of the similarity system.
struct SimParams {
  // ---- Global thresholds (§5.2) ----------------------------------------
  /// Reference pairs at or above this similarity are reconciled.
  double merge_threshold = 0.85;
  /// Attribute-value pairs at or above this similarity are merged.
  double value_merge_threshold = 1.0;
  /// Minimum similarity increase that re-activates neighbors (termination
  /// guard, §3.2).
  double epsilon = 1e-3;

  // ---- Per-class boolean evidence ---------------------------------------
  BooleanEvidenceParams person{0.1, 0.05, 0.7};
  BooleanEvidenceParams article{0.1, 0.05, 0.7};
  BooleanEvidenceParams venue{0.2, 0.05, 0.1};

  // ---- Value-node seed thresholds ("potentially similar", §3.1) ---------
  double person_name_seed = 0.50;
  double person_email_seed = 0.60;
  double name_email_seed = 0.55;
  double article_title_seed = 0.50;
  double venue_name_seed = 0.25;
  /// Years always get a node when both sides have one: a year *mismatch*
  /// (similarity 0) is negative evidence the similarity functions must see.
  double year_seed = 0.0;
  double pages_seed = 0.45;
  double location_seed = 0.50;

  // ---- Person S_rv leaf weights -----------------------------------------
  /// name + email leaf: w_n * name + w_e * email.
  double person_w_name_with_email = 0.60;
  double person_w_email_with_name = 0.40;
  /// name + email + name~email leaf.
  double person_w_name_full = 0.45;
  double person_w_email_full = 0.30;
  double person_w_ne_full = 0.25;
  /// email-only leaf multiplier.
  double person_email_only_scale = 0.90;
  /// name~email-only leaf multiplier. At 0.94, only *full-name-pattern*
  /// account matches (0.95: "robert.epstein") can merge on name~email
  /// evidence alone; initial patterns ("jhuang", 0.9) and bare last-name
  /// accounts (0.85) cannot — too many J. Huangs fit "jhuang".
  double person_ne_only_scale = 0.94;
  /// name + name~email (no email) leaf weights. Balanced: an abbreviated
  /// name match (0.8) plus a strong account pattern (0.9, "repstein")
  /// reconciles on its own — the paper's flagship Name&Email case.
  double person_w_name_ne = 0.50;
  double person_w_ne_ne = 0.50;

  // ---- Article S_rv leaf weights ----------------------------------------
  double article_w_title = 0.70;
  /// Auxiliary evidence weights (renormalized over present channels).
  double article_w_authors = 0.40;
  double article_w_venue = 0.25;
  double article_w_pages = 0.20;
  double article_w_year = 0.15;
  /// Title-only leaf multiplier.
  double article_title_only_scale = 0.92;

  // ---- Venue S_rv leaf weights ------------------------------------------
  double venue_w_name = 0.80;
  double venue_w_year = 0.10;
  double venue_w_location = 0.10;
  /// Multiplier applied to venue S_rv when both references carry years and
  /// the years are incompatible.
  double venue_year_mismatch_penalty = 0.45;
  /// Hard ceiling on total venue similarity under a flat year
  /// contradiction (must stay below merge_threshold).
  double venue_year_mismatch_cap = 0.80;
};

/// The parameters every run uses.
inline constexpr SimParams kSimParams{};

}  // namespace recon

#endif  // RECON_SIM_PARAMS_H_
