// Field comparators: the atomic-attribute similarity functions plugged into
// the dependency graph's value nodes. Thin, domain-aware wrappers over
// strsim that score values analyzed once by AnalyzeValue
// (sim/value_store.h) and also encode reconciliation policy (e.g.
// abbreviated person names alone can never reach the merge threshold).

#ifndef RECON_SIM_COMPARATORS_H_
#define RECON_SIM_COMPARATORS_H_

namespace recon {

struct ValueFeatures;

/// Person name vs person name. Capped at kAbbreviatedNameCap unless *both*
/// names have a full given name and a last name: "Wong, E." cannot merge
/// with "Eugene Wong" on the name alone — it needs corroborating evidence,
/// which is exactly the paper's design. Exception: *identical* strings are
/// equal attribute values (the paper's attribute threshold of 1.0), so two
/// occurrences of the same abbreviated string score
/// kEqualAbbreviatedNameSim, high enough to merge on their own. The
/// identity check is on the lowercased raw strings, not the parse.
double PersonNameFieldSimilarity(const ValueFeatures& a,
                                 const ValueFeatures& b);

/// Cap applied by PersonNameFieldSimilarity to non-full names.
inline constexpr double kAbbreviatedNameCap = 0.80;
/// Cap when either side is a bare first name / nickname (no last name):
/// two "Ronald"s are barely evidence at all. Exactly at the default t_rv
/// (0.7): boolean evidence applies, but a bare-name pair needs the maximum
/// weak-contact reward to reach the merge threshold.
inline constexpr double kBareNameCap = 0.70;
/// Score of byte-identical abbreviated strings that do have a last name.
inline constexpr double kEqualAbbreviatedNameSim = 0.88;

/// Email vs email (1.0 on case-insensitive equality: a key attribute).
double EmailFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b);

/// Person name vs email account (cross-attribute evidence). `name` must be
/// a kPersonName value and `email` a kEmail value.
double NameEmailFieldSimilarity(const ValueFeatures& name,
                                const ValueFeatures& email);

/// Article title vs title.
double TitleFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b);

/// Venue name vs venue name (acronym-aware).
double VenueNameFieldSimilarity(const ValueFeatures& a,
                                const ValueFeatures& b);

/// Year vs year.
double YearFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b);

/// Page range vs page range.
double PagesFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b);

/// Location vs location.
double LocationFieldSimilarity(const ValueFeatures& a,
                               const ValueFeatures& b);

}  // namespace recon

#endif  // RECON_SIM_COMPARATORS_H_
